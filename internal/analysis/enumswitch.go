package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// EnumSwitch requires switches over the CAER reaction enums to be
// exhaustive. The runtime's control flow is enum-driven — comm.Directive
// orders the batch application to run or pause, Verdict carries detection
// outcomes, HeuristicKind selects the detector/responder pairing — and a
// switch that silently falls through to a default when a new enumerator is
// added is exactly the "batch keeps running during contention" bug the
// paper's protocol forbids (§3.2: all batch applications must honour the
// directive every period). A default case is still allowed (for panics on
// corrupt values), but it does not excuse missing enumerators. The checked
// types carry //caer:enum.
var EnumSwitch = &Analyzer{
	Name: "enumswitch",
	Doc: "require switch statements over //caer:enum types (comm.Directive, comm.Role, " +
		"Verdict, ...) to enumerate every declared constant of the type",
	Run: runEnumSwitch,
}

// enumSentinelPrefix marks count sentinels (numEvents) that are excluded
// from exhaustiveness.
const enumSentinelPrefix = "num"

func runEnumSwitch(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkEnumSwitch(pass, sw)
			return true
		})
	}
}

func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pass.Dirs.has(obj, verbEnum) {
		return
	}

	enum := enumConstants(pass, named)
	if len(enum) == 0 {
		return
	}

	covered := make(map[string]bool) // by constant value representation
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range clause.List {
			if cv, ok := pass.Info.Types[e]; ok && cv.Value != nil {
				covered[cv.Value.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, c := range enum {
		if !covered[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	qual := obj.Name()
	if obj.Pkg().Path() != pass.Pkg.Path() {
		qual = pkgBase(obj.Pkg().Path()) + "." + obj.Name()
	}
	pass.Reportf(sw.Pos(),
		"switch over %s is not exhaustive: missing %s (a default case does not excuse "+
			"silently ignoring a reaction state)", qual, strings.Join(missing, ", "))
}

// enumConstants returns the constants of type named declared in its
// defining package, sorted by value, excluding count sentinels.
func enumConstants(pass *Pass, named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if strings.HasPrefix(strings.ToLower(c.Name()), enumSentinelPrefix) {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		vi, oki := constant.Int64Val(out[i].Val())
		vj, okj := constant.Int64Val(out[j].Val())
		if oki && okj && vi != vj {
			return vi < vj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}
