package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath keeps the per-period sampling/detection loop allocation- and
// syscall-light. The paper's 1 ms sampling period and <1% overhead budget
// (§6) leave no room for garbage-collector pressure or kernel round-trips
// inside the functions that run every period: the engine tick, the monitor
// probe, detector steps, responder reactions, and the table publish/read
// operations. Only the roots of that loop carry //caer:hot; arguments of
// panic calls are exempt (terminal paths are off-budget).
//
// v2: the ban propagates transitively. A function two static calls below
// a root runs every period just the same, so the analyzer checks the
// whole hot closure (CallGraph.HotSet: static, defer, and conservative
// interface edges; go edges and reviewed //caer:cold barriers stop the
// walk) and reports the call path that makes a finding hot.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "flag allocations, fmt/time/os/syscall calls, map and channel operations, " +
		"and calls to allocating snapshot APIs in the per-period hot path and " +
		"everything the call graph proves reachable from it",
	Run: runHotPath,
}

// hotBannedPkgs maps import paths banned in the hot path to the reason.
var hotBannedPkgs = map[string]string{
	"fmt":     "formats and allocates",
	"os":      "performs syscalls",
	"syscall": "performs syscalls",
	"io":      "may block on I/O",
	"log":     "formats, allocates, and writes",
	"time":    "reads the clock via the runtime/VDSO",
}

func runHotPath(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if path := pass.Hot[fn]; path != nil {
				// Findings below a root name the chain that makes them
				// hot; a root's own findings carry no path.
				if len(path) == 1 {
					path = nil
				}
				checkHotBody(pass, fd, path)
			}
		}
	}
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl, path []string) {
	report := func(pos token.Pos, format string, args ...any) {
		pass.ReportPathf(pos, path, format, args...)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(pass, node, "panic") {
				// A panicking hot path is already terminal; its message
				// formatting is off-budget.
				return false
			}
			checkHotCall(pass, node, report)
		case *ast.CompositeLit:
			checkHotCompositeLit(pass, node, report)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := node.X.(*ast.CompositeLit); ok {
					report(node.Pos(), "heap allocation (&composite literal) in hot path")
				}
			}
			if node.Op == token.ARROW {
				report(node.Pos(), "channel receive in hot path may block the sampling period")
			}
		case *ast.BinaryExpr:
			// Constant-folded concatenations cost nothing at run time.
			if node.Op == token.ADD && isStringType(pass, node) &&
				pass.Info.Types[node].Value == nil {
				report(node.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.IndexExpr:
			if isMapType(pass, node.X) {
				report(node.Pos(), "map access in hot path (hashing, possible growth)")
			}
		case *ast.RangeStmt:
			if isMapType(pass, node.X) {
				report(node.Pos(), "map iteration in hot path (randomized, allocates iterator state)")
			}
		case *ast.SendStmt:
			report(node.Pos(), "channel send in hot path may block the sampling period")
		case *ast.GoStmt:
			report(node.Pos(), "goroutine spawn in hot path allocates a stack every period")
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	// Builtins that allocate or touch maps.
	for _, b := range []string{"make", "new", "append"} {
		if isBuiltinCall(pass, call, b) {
			report(call.Pos(), "%s() allocates in hot path", b)
			return
		}
	}
	if isBuiltinCall(pass, call, "delete") {
		report(call.Pos(), "map delete in hot path")
		return
	}
	for _, b := range []string{"print", "println"} {
		if isBuiltinCall(pass, call, b) {
			report(call.Pos(), "%s writes to stderr in hot path", b)
			return
		}
	}

	// Conversions between string and byte/rune slices copy.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringByteConversion(tv.Type, pass.Info.Types[call.Args[0]].Type) {
			report(call.Pos(), "string/[]byte conversion copies in hot path")
			return
		}
	}

	// Calls into banned packages and allocating snapshot APIs.
	callee := calleeFunc(pass, call)
	if callee == nil {
		return
	}
	if callee.Pkg() != nil {
		if reason, banned := hotBannedPkgs[callee.Pkg().Path()]; banned {
			report(call.Pos(), "call to %s.%s in hot path (%s)",
				pkgBase(callee.Pkg().Path()), callee.Name(), reason)
			return
		}
		if pass.Dirs.has(callee, verbAlloc) {
			recv := recvTypeName(callee)
			if recv != "" {
				recv += "."
			}
			report(call.Pos(),
				"call to allocating snapshot API %s%s in hot path; iterate in place instead",
				recv, callee.Name())
		}
	}
}

func checkHotCompositeLit(pass *Pass, lit *ast.CompositeLit, report func(token.Pos, string, ...any)) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		report(lit.Pos(), "slice literal allocates in hot path")
	case *types.Map:
		report(lit.Pos(), "map literal allocates in hot path")
	}
}

// isBuiltinCall reports whether call invokes the named Go builtin.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// calleeFunc resolves the called function or method object, or nil for
// indirect calls and type conversions.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func isStringType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isMapType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isStringByteConversion reports whether a conversion crosses between
// string and []byte/[]rune (which copies the data).
func isStringByteConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isStringy(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringy(from))
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
