package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"caer/internal/experiments"
)

// fakeResult is a scripted regime result.
type fakeResult struct{ gate error }

func (f fakeResult) Check() error { return f.gate }
func (f fakeResult) Render(w io.Writer) error {
	_, err := io.WriteString(w, "fake summary\n")
	return err
}
func (f fakeResult) WriteJSON(w io.Writer) error { _, err := io.WriteString(w, "{}\n"); return err }

func fakeRegime(name string, gate error) experiments.Regime {
	return experiments.Regime{
		Name: name, Claim: name + " claim",
		Run: func(int64, bool, int) experiments.Result { return fakeResult{gate} },
	}
}

// TestRunSuitesFailingGate: a regime whose Check fails stops the loop with
// an error (caer-bench exits non-zero on it) before its artifact is
// written; regimes before it have already passed and written theirs.
func TestRunSuitesFailingGate(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := runSuites(&out, []experiments.Regime{
		fakeRegime("good", nil),
		fakeRegime("bad", errors.New("claim refuted")),
		fakeRegime("never", nil),
	}, 1, true, 1, dir)
	if err == nil || !strings.Contains(err.Error(), "bad gate violation: claim refuted") {
		t.Fatalf("runSuites error = %v, want the bad regime's gate violation", err)
	}
	if !strings.Contains(out.String(), "good gate holds: good claim") {
		t.Errorf("passing regime did not print its claim:\n%s", out.String())
	}
	for name, want := range map[string]bool{"good": true, "bad": false, "never": false} {
		_, statErr := os.Stat(filepath.Join(dir, "BENCH_"+name+".json"))
		if got := statErr == nil; got != want {
			t.Errorf("BENCH_%s.json written = %v, want %v", name, got, want)
		}
	}
}

func TestParseNames(t *testing.T) {
	valid := []string{"a", "b", "c"}
	got, err := parseNames("suite", "c, a", valid)
	if err != nil || len(got) != 2 || !got["a"] || !got["c"] {
		t.Errorf("parseNames(c, a) = %v, %v", got, err)
	}
	if got, err := parseNames("suite", "all", valid); err != nil || len(got) != 3 {
		t.Errorf("parseNames(all) = %v, %v", got, err)
	}
	if got, err := parseNames("suite", "", valid); err != nil || len(got) != 0 {
		t.Errorf("parseNames(empty) = %v, %v", got, err)
	}
	_, err = parseNames("suite", "a,perf", valid)
	if err == nil || !strings.Contains(err.Error(), `"perf"`) || !strings.Contains(err.Error(), "a, b, c") {
		t.Errorf("unknown name error = %v, want the name and the valid list", err)
	}
}

// TestDocsUseSuiteFlag keeps the docs on the -suite flag: no doc, script or
// command comment may name one of the retired per-suite flags, and
// EXPERIMENTS.md's claim table must have a row stating every registered
// regime's Claim verbatim.
func TestDocsUseSuiteFlag(t *testing.T) {
	removed := regexp.MustCompile("(^|[\\s`(\\[])-(chaos|sched|sampling|fleet|slo|partition|perf)\\b")
	for _, path := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", "check.sh",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
		"cmd/caer-bench/main.go", "cmd/caer-doctor/main.go", "cmd/caer-top/main.go",
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if m := removed.FindStringSubmatch(line); m != nil {
				t.Errorf("%s:%d names the removed flag -%s (regime suites run via -suite): %s", path, i+1, m[2], line)
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range experiments.Regimes() {
		if row := fmt.Sprintf("| `%s` | %s |", r.Name, r.Claim); !strings.Contains(string(raw), row) {
			t.Errorf("EXPERIMENTS.md has no claim-table row %q for registered regime %s", row, r.Name)
		}
	}
}
