package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism keeps the simulation core and the result-assembly paths
// bit-reproducible. The repo's byte-identity gates — BENCH_sched.json
// identical at Workers=1 vs 4, the perf suite's parallel-vs-serial
// machine-state comparison (DESIGN.md §6, §11) — only hold if nothing in
// those paths consults a source of nondeterminism. Four rules, applied to
// the packages and functions marked //caer:deterministic:
//
//  1. no wall-clock reads (time.Now/Since/Until/Sleep): simulated time is
//     the only clock; wall time varies run to run.
//  2. no process-global math/rand: the package-level convenience
//     functions draw from a shared, racily-advanced source. Seeded
//     rand.New(rand.NewSource(seed)) instances are fine — that is the
//     repo's convention.
//  3. no map iteration that feeds ordered output (appends to an outer
//     slice, writes to a writer) or order-sensitive accumulators
//     (floating-point += is not associative): Go randomizes map order on
//     purpose, so such loops differ run to run. Iterate a sorted key
//     slice instead.
//  4. no unordered goroutine result collection: a spawned goroutine that
//     appends to a slice shared with its spawner interleaves results in
//     scheduling order. Write to an indexed slot (results[i] = ...)
//     instead.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, process-global math/rand, map iteration feeding " +
		"ordered output or order-sensitive accumulators, and unordered goroutine " +
		"result collection in the deterministic packages",
	Run: runDeterminism,
}

// wallClockFuncs are the time-package functions that read the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
}

// seededRandFuncs are the math/rand package-level functions that do NOT
// draw from the process-global source (constructors of explicit sources).
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) {
	wholePkg := pass.Dirs.has(pass.Pkg, verbDeterministic)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !wholePkg {
				if !pass.Dirs.has(pass.Info.Defs[fd.Name], verbDeterministic) {
					continue
				}
			}
			checkDeterministicBody(pass, fd)
		}
	}
}

func checkDeterministicBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			checkDetCall(pass, node)
		case *ast.RangeStmt:
			if isMapType(pass, node.X) {
				checkDetMapRange(pass, fd, node)
			}
		case *ast.GoStmt:
			checkDetGoCollection(pass, node)
		}
		return true
	})
}

// checkDetCall flags wall-clock reads and global math/rand draws.
func checkDetCall(pass *Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "time":
		if recvTypeName(callee) == "" && wallClockFuncs[callee.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in deterministic code; simulated periods are the only clock here",
				callee.Name())
		}
	case "math/rand", "math/rand/v2":
		if recvTypeName(callee) == "" && !seededRandFuncs[callee.Name()] {
			pass.Reportf(call.Pos(),
				"process-global rand.%s in deterministic code; draw from a seeded rand.New(rand.NewSource(seed))",
				callee.Name())
		}
	}
}

// checkDetMapRange flags map-iteration bodies that feed ordered output or
// order-sensitive accumulators. The one sanctioned append is the
// collect-keys-then-sort idiom: an append whose target is handed to a
// sort/slices function later in the same enclosing function is the fix the
// analyzer itself recommends, so it is exempt.
func checkDetMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(pass, node, "append") && len(node.Args) > 0 &&
				declaredOutside(pass, node.Args[0], rng) &&
				!sortedAfter(pass, fd, node.Args[0], rng.End()) {
				pass.Reportf(rng.Pos(),
					"map iteration feeds ordered output (append to %s); iterate a sorted key slice instead",
					types.ExprString(node.Args[0]))
				return false
			}
			if callee := calleeFunc(pass, node); callee != nil && isOrderedWriter(callee) {
				pass.Reportf(rng.Pos(),
					"map iteration feeds ordered output (%s.%s); iterate a sorted key slice instead",
					pkgBase(callee.Pkg().Path()), callee.Name())
				return false
			}
		case *ast.AssignStmt:
			if node.Tok != token.ADD_ASSIGN && node.Tok != token.SUB_ASSIGN &&
				node.Tok != token.MUL_ASSIGN {
				return true
			}
			for _, lhs := range node.Lhs {
				if isFloatExpr(pass, lhs) && declaredOutside(pass, lhs, rng) {
					pass.Reportf(rng.Pos(),
						"map iteration accumulates %s with floating-point %s (not associative; "+
							"sum order changes the bits); iterate a sorted key slice instead",
						types.ExprString(lhs), node.Tok)
					return false
				}
			}
		}
		return true
	})
}

// sortedAfter reports whether the variable behind target is passed to a
// sort- or slices-package function after position after, still inside fd.
// That marks the collect-then-sort idiom as deterministic.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, target ast.Expr, after token.Pos) bool {
	id, ok := target.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || sorted {
			return !sorted
		}
		callee := calleeFunc(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if argID, ok := arg.(*ast.Ident); ok && pass.Info.Uses[argID] == obj {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// isOrderedWriter reports whether a callee emits ordered output: the fmt
// printers and Write* methods.
func isOrderedWriter(callee *types.Func) bool {
	if callee.Pkg() == nil {
		return false
	}
	if callee.Pkg().Path() == "fmt" && (strings.HasPrefix(callee.Name(), "Fprint") ||
		strings.HasPrefix(callee.Name(), "Print")) {
		return true
	}
	return strings.HasPrefix(callee.Name(), "Write") && recvTypeName(callee) != ""
}

// checkDetGoCollection flags goroutine bodies that append results into a
// slice owned by the spawner: the interleaving is scheduling order, so
// collected results come back shuffled.
func checkDetGoCollection(pass *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinCall(pass, call, "append") || len(call.Args) == 0 {
				continue
			}
			if i < len(asg.Lhs) && declaredOutside(pass, asg.Lhs[i], lit) &&
				declaredOutside(pass, call.Args[0], lit) {
				pass.Reportf(asg.Pos(),
					"goroutine appends results to shared %s; collection order is scheduling-dependent — "+
						"assign to an indexed slot or collect through an ordered channel",
					types.ExprString(asg.Lhs[i]))
			}
		}
		return true
	})
}

// declaredOutside reports whether the variable behind e is declared
// outside the syntactic region node (range statement, function literal),
// i.e. it outlives the loop or goroutine body. Selector expressions
// resolve to their field/receiver variable; non-variables return false.
func declaredOutside(pass *Pass, e ast.Expr, region ast.Node) bool {
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[x]
		if obj == nil {
			obj = pass.Info.Defs[x]
		}
	case *ast.SelectorExpr:
		// A field or method of something: fields live with the struct,
		// which is conservatively "outside" for our purposes.
		return true
	case *ast.IndexExpr:
		// Indexed writes are the ordering discipline we ask for.
		return false
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < region.Pos() || v.Pos() > region.End()
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
