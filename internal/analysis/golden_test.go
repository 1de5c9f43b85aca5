package analysis

import (
	"bufio"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a testdata comment of the form
//
//	// want <analyzer> "substring" [<analyzer> "substring" ...]
//
// attached to the offending line.
type want struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`(\w+)\s+"([^"]+)"`)

// parseWants scans every Go file of a testdata package directory for want
// comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read testdata dir: %v", err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open testdata file: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(text[idx+len("// want "):], -1) {
				wants = append(wants, &want{file: e.Name(), line: line, analyzer: m[1], substr: m[2]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan testdata file: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close testdata file: %v", err)
		}
	}
	return wants
}

// loadTestPkg loads one package of the testdata module (module path
// "test").
func loadTestPkg(t *testing.T, rel string) *Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("abs testdata root: %v", err)
	}
	pkg, err := NewLoader(root, "test").Load(filepath.Join(root, rel))
	if err != nil {
		t.Fatalf("load testdata package %s: %v", rel, err)
	}
	if pkg == nil {
		t.Fatalf("testdata package %s has no Go files", rel)
	}
	return pkg
}

// runGolden checks one testdata package: every want comment must be hit by
// a finding and every finding must be expected by a want comment.
func runGolden(t *testing.T, rel string) {
	t.Helper()
	pkg := loadTestPkg(t, rel)
	findings := RunAnalyzers(pkg, Analyzers(), &Config{ModulePath: "test"})
	wants := parseWants(t, pkg.Dir)

	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		ok := false
		for _, w := range wants {
			if w.file == base && w.line == f.Pos.Line && w.analyzer == f.Analyzer &&
				strings.Contains(f.Message, w.substr) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: %s:%d expected [%s] containing %q",
				w.file, w.line, w.analyzer, w.substr)
		}
	}
}

func TestGoldenComm(t *testing.T)      { runGolden(t, "comm") }
func TestGoldenCaer(t *testing.T)      { runGolden(t, "caer") }
func TestGoldenPmu(t *testing.T)       { runGolden(t, "pmu") }
func TestGoldenTelemetry(t *testing.T) { runGolden(t, "telemetry") }
func TestGoldenMem(t *testing.T)       { runGolden(t, "mem") }
func TestGoldenLifecycle(t *testing.T) { runGolden(t, "lifecycle") }
func TestGoldenTeldisc(t *testing.T)   { runGolden(t, "teldisc") }
func TestGoldenFleet(t *testing.T)     { runGolden(t, "fleet") }
func TestGoldenPart(t *testing.T)      { runGolden(t, "part") }

// TestGoldenSeedsEveryAnalyzer guards the fixtures themselves: each
// analyzer of the suite must have at least one seeded violation across the
// golden packages, or a regression could silently disable it.
func TestGoldenSeedsEveryAnalyzer(t *testing.T) {
	cfg := &Config{ModulePath: "test"}
	hit := make(map[string]int)
	for _, rel := range []string{"comm", "caer", "pmu", "telemetry", "mem", "lifecycle", "teldisc", "hygiene", "fleet", "part"} {
		for _, f := range RunAnalyzers(loadTestPkg(t, rel), Analyzers(), cfg) {
			hit[f.Analyzer]++
		}
	}
	for _, a := range Analyzers() {
		if hit[a.Name] == 0 {
			t.Errorf("analyzer %s catches nothing in the golden packages", a.Name)
		}
	}
}

// TestSuppressionHygiene checks the hygiene analyzer over its dedicated
// fixture package: a reason-less allow and a malformed directive are
// always findings; an unused allow, a barrier no hot function calls, and a
// hot root another root reaches are findings under
// ReportUnusedSuppressions — an unused allow only when the analyzers it
// names actually ran (subset runs must not cry stale).
func TestSuppressionHygiene(t *testing.T) {
	pkg := loadTestPkg(t, "hygiene")
	count := func(cfg *Config) map[string]int {
		rules := []string{"needs a reason: //caer:allow", "unknown directive", "documents a func",
			"annotates nothing", "needs a reason: //caer:cold", "unused suppression",
			"stops nothing", "already reached from another root"}
		got := make(map[string]int)
		for _, f := range RunAnalyzers(pkg, Analyzers(), cfg) {
			matched := false
			for _, rule := range rules {
				if f.Analyzer == Suppression.Name && strings.Contains(f.Message, rule) {
					got[rule]++
					matched = true
				}
			}
			if !matched {
				t.Errorf("unexpected finding in hygiene package: %s", f)
			}
		}
		return got
	}
	always := map[string]int{"needs a reason: //caer:allow": 1, "unknown directive": 1,
		"documents a func": 1, "annotates nothing": 1, "needs a reason: //caer:cold": 1}
	if got := count(&Config{ModulePath: "test"}); !maps.Equal(got, always) {
		t.Errorf("hygiene findings without -unused-suppressions = %v, want %v", got, always)
	}
	cfg := &Config{ModulePath: "test", ReportUnusedSuppressions: true}
	unused := maps.Clone(always)
	unused["unused suppression"] = 1
	unused["stops nothing"] = 1
	unused["already reached from another root"] = 1
	if got := count(cfg); !maps.Equal(got, unused) {
		t.Errorf("hygiene findings with -unused-suppressions = %v, want %v", got, unused)
	}

	// A subset run without hotpath must not call the hotpath allow stale.
	subset, err := SelectAnalyzers("lockdiscipline,suppression")
	if err != nil {
		t.Fatalf("SelectAnalyzers: %v", err)
	}
	for _, f := range RunAnalyzers(pkg, subset, cfg) {
		if strings.Contains(f.Message, "unused suppression") {
			t.Errorf("unused finding reported though hotpath did not run: %s", f)
		}
	}
}

// TestSuppressionComment verifies //caer:allow drops a finding that the
// same code without the comment produces (the suppress.go fixture calls an
// allocating snapshot API from a hot function).
func TestSuppressionComment(t *testing.T) {
	pkg := loadTestPkg(t, "caer")
	dirs, scanned := indexDirectives([]*Package{pkg})

	var raw []Finding
	pass := &Pass{Analyzer: HotPath, Fset: pkg.Fset, Files: pkg.Files,
		Pkg: pkg.Types, Info: pkg.Info, Cfg: &Config{ModulePath: "test"}, Dirs: dirs,
		Hot: BuildCallGraph([]*Package{pkg}).HotSet(dirs), findings: &raw}
	HotPath.Run(pass)

	inSuppress := func(fs []Finding) int {
		n := 0
		for _, f := range fs {
			if filepath.Base(f.Pos.Filename) == "suppress.go" {
				n++
			}
		}
		return n
	}
	if got := inSuppress(raw); got != 1 {
		t.Fatalf("expected exactly 1 raw hotpath finding in suppress.go, got %d", got)
	}
	if got := inSuppress(filterSuppressed(scanned[pkg].sups, raw)); got != 0 {
		t.Errorf("suppressed finding survived filtering (%d left)", got)
	}
}
