// Package analysis implements caer-vet, a repo-specific static analysis
// suite for the CAER runtime. The analyzers mechanically check invariants
// the Go compiler cannot express but the paper's correctness story depends
// on:
//
//   - shmaccess: the communication table (paper §3.2, Figure 4) is
//     single-writer-per-slot shared memory; its fields must only be touched
//     through the table API, and 64-bit atomically-accessed fields must be
//     8-byte aligned so 32-bit platforms do not tear.
//   - hotpath: the 1 ms sampling/detection loop must stay allocation- and
//     syscall-light, or the runtime's own overhead drowns the contention
//     signal it measures (the paper's §6 headline is <1% overhead). Since
//     v2 the ban propagates transitively through the static call graph
//     from the //caer:hot roots, and findings carry the offending call
//     path.
//   - enumswitch: switches over reaction enums (comm.Directive and friends)
//     must be exhaustive — a default: that silently runs the batch
//     application is a contention-response bug.
//   - lockdiscipline: every Lock() needs a same-function Unlock, and errors
//     returned by this module's table/IO writes must not be silently
//     discarded.
//   - determinism: the simulation core and result-assembly paths must stay
//     bit-reproducible — no wall-clock reads, no process-global math/rand,
//     no map iteration feeding ordered output or order-sensitive
//     accumulators, no unordered goroutine result collection.
//   - goroutinelifecycle: every go statement needs a provable shutdown
//     edge (close of the channel it ranges over, a done-select that
//     returns, or sync.WaitGroup pairing).
//   - telemetrydiscipline: metric registration stays out of hot-path-
//     reachable code, and every registered family name is a compile-time
//     constant (DESIGN.md §10 documents each one; a test holds them equal).
//   - suppression: //caer:allow comments must carry a reason, and (when
//     enabled) must actually suppress something; //caer: directives must
//     be well-formed and (when enabled) not dead.
//
// What the analyzers check against is declared in the code, by directive
// comments on the declarations concerned (//caer:hot, //caer:cold,
// //caer:alloc, //caer:enum, //caer:deterministic; see directives.go).
//
// The suite is built entirely on the standard library (go/parser, go/ast,
// go/types); it deliberately takes no dependency on golang.org/x/tools so
// the repo stays self-contained. Findings can be suppressed with a
// documented comment:
//
//	//caer:allow <analyzer>[,<analyzer>...] <reason>
//
// which applies to the line it is written on and to the line directly
// below it (so it can trail the offending expression or sit above it).
// The reason is mandatory; stale suppressions are themselves findings
// under Config.ReportUnusedSuppressions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Config carries the per-run settings. Everything the analyzers check
// against is read from the code's own //caer: directives.
type Config struct {
	// ModulePath is the import path of the module under analysis; set by
	// Vet. lockdiscipline scopes its error-discard rule to functions
	// declared inside this module.
	ModulePath string

	// ReportUnusedSuppressions turns stale //caer:allow comments, dead
	// //caer:cold barriers and redundant //caer:hot roots into findings
	// (the -unused-suppressions flag; on in CI).
	ReportUnusedSuppressions bool
}

// InModule reports whether a package path belongs to the analyzed module.
func (c *Config) InModule(pkgPath string) bool {
	return c.ModulePath != "" &&
		(pkgPath == c.ModulePath || strings.HasPrefix(pkgPath, c.ModulePath+"/"))
}

// Finding is one analyzer diagnostic, positioned in the source tree. Path,
// when non-empty, is the call chain from a //caer:hot root to
// the function containing the finding (hotpath v2, telemetrydiscipline).
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Path     []string
}

// String renders the finding the way compilers do: file:line:col: message,
// with the call path appended when present.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	if len(f.Path) > 0 {
		s += " [path: " + strings.Join(f.Path, " -> ") + "]"
	}
	return s
}

// Analyzer is one named invariant checker. Run inspects the package held by
// the Pass and reports findings through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer, together
// with the module-wide context the dataflow analyzers need.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Cfg      *Config
	// Dirs indexes the //caer: directives of every loaded package.
	Dirs *Directives

	// Graph is the static call graph over every package of the run (one
	// package in unit tests, the whole module under Vet).
	Graph *CallGraph
	// Hot maps every hot-path function (//caer:hot roots plus their
	// transitive static closure, minus cold barriers) to its label path
	// from a root. See CallGraph.HotSet.
	Hot map[*types.Func][]string

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPathf records a finding carrying the hot-path call chain that
// makes the position hot.
func (p *Pass) ReportPathf(pos token.Pos, path []string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// Suppression is the pseudo-analyzer that owns suppression- and
// directive-hygiene findings (missing reasons, stale allows, malformed or
// dead directives). Its Run is a no-op: the driver emits its findings
// while filtering, where usage is known.
var Suppression = &Analyzer{
	Name: "suppression",
	Doc: "require //caer:allow comments and //caer:cold barriers to carry a reason, " +
		"reject malformed //caer: directives, and report allows, barriers and hot " +
		"roots that no longer do anything (stale waivers accumulate risk)",
	Run: func(*Pass) {},
}

// Analyzers returns the full caer-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ShmAccess, HotPath, EnumSwitch, LockDiscipline,
		Determinism, GoroutineLifecycle, TelemetryDiscipline,
		Suppression,
	}
}

// AnalyzerNames returns the suite's analyzer names in stable order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// SelectAnalyzers resolves a comma-separated analyzer-name list against
// the suite. An empty selection returns the full suite.
func SelectAnalyzers(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return Analyzers(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (have %s)",
				name, strings.Join(AnalyzerNames(), ", "))
		}
		seen[name] = true
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the given analyzers to one loaded package and
// returns the findings that survive //caer:allow suppression filtering,
// plus any suppression-hygiene findings. The call graph is built over the
// single package; use VetPackages for whole-module (cross-package)
// propagation.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, cfg *Config) []Finding {
	return VetPackages([]*Package{pkg}, analyzers, cfg)
}

// VetPackages builds the static call graph over all packages, then runs
// every analyzer over every package with the shared graph and hot-path
// closure, applies suppression filtering, and returns the surviving
// findings sorted by position.
func VetPackages(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Finding {
	dirs, scanned := indexDirectives(pkgs)
	graph := BuildCallGraph(pkgs)
	hot := graph.HotSet(dirs)

	active := make(map[string]bool)
	for _, a := range analyzers {
		active[a.Name] = true
	}

	var all []Finding
	for _, pkg := range pkgs {
		var findings []Finding
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Cfg:      cfg,
				Dirs:     dirs,
				Graph:    graph,
				Hot:      hot,
				findings: &findings,
			})
		}
		c := scanned[pkg]
		findings = filterSuppressed(c.sups, findings)
		if active[Suppression.Name] {
			findings = append(findings, suppressionFindings(c.sups, cfg, active)...)
			findings = append(findings, directiveFindings(c.dirs, graph, dirs, hot, cfg)...)
		}
		all = append(all, findings...)
	}
	sortFindings(all)
	return all
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppression is one //caer:allow comment: the analyzers it names, its
// mandatory reason, the lines it covers, and whether it matched anything.
type suppression struct {
	pos       token.Position // the comment's own position
	analyzers map[string]bool
	reason    string
	used      bool
}

// covers reports whether the comment's scope includes (file, line): its
// own line and the line directly below.
func (s *suppression) covers(file string, line int) bool {
	return s.pos.Filename == file && (line == s.pos.Line || line == s.pos.Line+1)
}

// allows reports whether the comment waives findings from the analyzer.
func (s *suppression) allows(analyzer string) bool {
	return s.analyzers[analyzer] || s.analyzers["all"]
}

// newSuppression parses the fields after //caer:allow: a comma-separated
// analyzer list, then the reason.
func newSuppression(pos token.Position, fields []string) *suppression {
	s := &suppression{pos: pos, analyzers: make(map[string]bool)}
	if len(fields) > 0 {
		for _, name := range strings.Split(fields[0], ",") {
			if name = strings.TrimSpace(name); name != "" {
				s.analyzers[name] = true
			}
		}
		s.reason = strings.Join(fields[1:], " ")
	}
	return s
}

// filterSuppressed drops findings covered by a //caer:allow comment and
// marks the comments that did the covering. Suppression-hygiene findings
// themselves cannot be suppressed.
func filterSuppressed(sups []*suppression, findings []Finding) []Finding {
	if len(sups) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, s := range sups {
			if s.covers(f.Pos.Filename, f.Pos.Line) && s.allows(f.Analyzer) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

// suppressionFindings reports hygiene violations: a missing reason is
// always a finding; an allow that suppressed nothing is a finding under
// Config.ReportUnusedSuppressions, but only when every analyzer it names
// actually ran (so -analyzer subsets do not produce false staleness).
func suppressionFindings(sups []*suppression, cfg *Config, active map[string]bool) []Finding {
	fullSuite := true
	for _, name := range AnalyzerNames() {
		if !active[name] {
			fullSuite = false
			break
		}
	}
	var out []Finding
	for _, s := range sups {
		names := sortedNames(s.analyzers)
		if len(s.analyzers) == 0 || s.reason == "" {
			out = append(out, Finding{
				Analyzer: Suppression.Name,
				Pos:      s.pos,
				Message: "suppression needs a reason: //caer:allow <analyzer> <reason> " +
					"(an unexplained allow is unreviewable)",
			})
			continue
		}
		if !cfg.ReportUnusedSuppressions || s.used {
			continue
		}
		ranAll := true
		for name := range s.analyzers {
			if name == "all" {
				ranAll = ranAll && fullSuite
			} else if !active[name] {
				ranAll = false
			}
		}
		if !ranAll {
			continue
		}
		out = append(out, Finding{
			Analyzer: Suppression.Name,
			Pos:      s.pos,
			Message: fmt.Sprintf("unused suppression for %s: the allow no longer "+
				"matches any finding; delete it", strings.Join(names, ",")),
		})
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Vet loads every package named by dirs (absolute or modRoot-relative
// package directories), builds the module-wide call graph, and runs the
// analyzers over each package, returning all surviving findings sorted by
// position.
func Vet(modRoot, modPath string, dirs []string, analyzers []*Analyzer, cfg *Config) ([]Finding, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	cfg.ModulePath = modPath
	loader := NewLoader(modRoot, modPath)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil { // no buildable Go files
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	return VetPackages(pkgs, analyzers, cfg), nil
}
