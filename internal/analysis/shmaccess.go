package analysis

import (
	"go/ast"
	"go/types"
)

// ShmAccess guards the communication table's shared-memory discipline
// (paper §3.2, Figure 4): each slot's sample ring is single-writer, so all
// access from outside the comm package must go through the table API, and
// any field accessed with 64-bit sync/atomic operations must sit at an
// 8-byte-aligned offset (on 32-bit platforms Go only guarantees 4-byte
// struct alignment; a misaligned 64-bit atomic faults or tears).
var ShmAccess = &Analyzer{
	Name: "shmaccess",
	Doc: "flag direct field access to communication-table types outside the comm package, " +
		"and 64-bit atomic fields whose struct layout does not guarantee 8-byte alignment",
	Run: runShmAccess,
}

// commPackage is the final import-path element of the communication-table
// package, the shared-memory owner.
const commPackage = "comm"

func isCommPackage(path string) bool { return pkgBase(path) == commPackage }

func runShmAccess(pass *Pass) {
	inComm := isCommPackage(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				if !inComm {
					checkCommFieldAccess(pass, node)
				}
			case *ast.CompositeLit:
				if !inComm {
					checkCommLiteral(pass, node)
				}
			case *ast.CallExpr:
				checkAtomic64Alignment(pass, node)
			}
			return true
		})
	}
}

// checkCommFieldAccess flags x.field where field is declared on a comm
// package type and the access happens outside comm: table state is shared
// memory with a single-writer contract that only the comm API maintains.
func checkCommFieldAccess(pass *Pass, sel *ast.SelectorExpr) {
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	obj := s.Obj()
	if obj.Pkg() == nil || !isCommPackage(obj.Pkg().Path()) {
		return
	}
	owner := namedTypeName(s.Recv())
	pass.Reportf(sel.Sel.Pos(),
		"direct access to communication-table field %s.%s outside the comm package; "+
			"the table is single-writer shared memory — use the table API",
		owner, obj.Name())
}

// checkCommLiteral flags composite literals of comm struct types built
// outside comm: hand-rolled table state skips the invariants the
// constructors establish.
func checkCommLiteral(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !isCommPackage(obj.Pkg().Path()) {
		return
	}
	pass.Reportf(lit.Pos(),
		"composite literal of communication-table type %s outside the comm package; "+
			"construct table state through the comm constructors", obj.Name())
}

// sizes32 models a 32-bit platform (gc toolchain, GOARCH=386), the
// pessimistic layout for 64-bit atomic alignment.
var sizes32 = types.SizesFor("gc", "386")

// atomic64Funcs are the sync/atomic package-level operations that require
// 8-byte alignment of their operand.
var atomic64Funcs = map[string]bool{
	"AddInt64": true, "AddUint64": true,
	"LoadInt64": true, "LoadUint64": true,
	"StoreInt64": true, "StoreUint64": true,
	"SwapInt64": true, "SwapUint64": true,
	"CompareAndSwapInt64": true, "CompareAndSwapUint64": true,
}

// checkAtomic64Alignment flags atomic.XxxInt64(&s.f, ...) when f's offset
// within its struct is not a multiple of 8 under 32-bit layout rules. The
// atomic.Int64/Uint64 wrapper types are exempt: they embed align64 and the
// runtime guarantees their alignment.
func checkAtomic64Alignment(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomic64Funcs[sel.Sel.Name] {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	addr, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok {
		return
	}
	fieldSel, ok := addr.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := pass.Info.Selections[fieldSel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	off, structName, ok := fieldOffset32(s)
	if !ok || off%8 == 0 {
		return
	}
	pass.Reportf(call.Pos(),
		"64-bit atomic access to %s.%s at offset %d: not 8-byte aligned on 32-bit platforms; "+
			"move the field to the front of %s or pad before it",
		structName, s.Obj().Name(), off, structName)
}

// fieldOffset32 computes the byte offset of the selected field from the
// start of its outermost struct under 32-bit layout, following the
// selection's embedded-field index path.
func fieldOffset32(s *types.Selection) (offset int64, structName string, ok bool) {
	t := s.Recv()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	if n, okn := t.(*types.Named); okn {
		structName = n.Obj().Name()
		t = n.Underlying()
	}
	for _, idx := range s.Index() {
		st, oks := t.Underlying().(*types.Struct)
		if !oks || idx >= st.NumFields() {
			return 0, structName, false
		}
		fields := make([]*types.Var, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			fields[i] = st.Field(i)
		}
		offset += sizes32.Offsetsof(fields)[idx]
		t = st.Field(idx).Type()
	}
	return offset, structName, true
}

// namedTypeName returns the bare name of t's named type (through one
// pointer), or the type string as a fallback.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
