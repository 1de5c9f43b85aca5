package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// registeredMetricNames returns the sorted, deduplicated constant family
// names passed to Registry.Counter/Gauge/Histogram in pkgs.
func registeredMetricNames(pkgs []*Package) []string {
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return true
				}
				callee, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || registrationNameArg(callee) != 0 {
					return true
				}
				if tv := pkg.Info.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String {
					names = append(names, constant.StringVal(tv.Value))
				}
				return true
			})
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// undocumented returns the names that do not appear as whole words in doc.
func undocumented(names []string, doc []byte) []string {
	var out []string
	for _, name := range names {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(doc) {
			out = append(out, name)
		}
	}
	return out
}

// TestMetricNamesDocumented holds the code to DESIGN.md §10's registry
// table: every constant family name the real tree registers must appear
// verbatim in DESIGN.md, so the spine, the docs, and the scrape surface
// cannot drift apart. The teldisc and part fixtures register one
// undocumented name each, which the check must catch.
func TestMetricNamesDocumented(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	loader := NewLoader(root, modPath)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	names := registeredMetricNames(pkgs)
	if !slices.Contains(names, "caer_engine_ticks_total") {
		t.Fatalf("registered names %v miss caer_engine_ticks_total; the collector is broken", names)
	}
	for _, name := range undocumented(names, design) {
		t.Errorf("telemetry family %q is registered but not documented in DESIGN.md §10's registry table", name)
	}

	fixtures := registeredMetricNames([]*Package{loadTestPkg(t, "teldisc"), loadTestPkg(t, "part")})
	want := []string{"caer_part_rogue_total", "caer_rogue_gauge"}
	if got := undocumented(fixtures, design); !slices.Equal(got, want) {
		t.Errorf("undocumented fixture names = %v, want %v", got, want)
	}
}
