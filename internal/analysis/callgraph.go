package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the static call graph the dataflow analyzers walk
// (hotpath v2 transitive propagation, telemetrydiscipline reachability,
// goroutinelifecycle parent lookups). The model, documented in DESIGN.md
// §12:
//
//   - Nodes are functions and methods *declared in the loaded packages*.
//     Standard-library callees are not nodes: a banned stdlib call is
//     caught where it textually occurs, inside whichever module function
//     the walk reaches.
//   - Static calls (identifier and selector calls that go/types resolves
//     to a concrete *types.Func) produce EdgeStatic.
//   - defer f() produces EdgeDefer: the deferred body still runs inside
//     the caller's activation, so hot-path budget applies.
//   - go f() produces EdgeGo: recorded for the lifecycle analyzer, but
//     NOT followed by hot propagation — the spawn itself is already a
//     hotpath finding, and the spawned body runs off the period loop.
//   - A method value or function value that is referenced without being
//     called (f := e.helper; hand it elsewhere) produces EdgeMethodValue:
//     the graph assumes it may be invoked by the holder.
//   - A call through an interface produces one EdgeInterface per concrete
//     method declared in the loaded packages whose receiver type
//     implements the interface (the conservative "it could be any of
//     them" reading). Interfaces declared outside the loaded packages
//     (error, io.Writer, ...) are not resolved — their implementors are
//     unbounded — and reflection is out of scope entirely.
type CallGraph struct {
	nodes map[*types.Func]*Node
	tpkgs map[*types.Package]bool // type-checker packages of the loaded set
}

// Node is one declared function in the analyzed packages.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []Edge
	In   []Edge
}

// Label renders the node as "pkg.Type.Method" or "pkg.Func", using the
// last import-path element.
func (n *Node) Label() string {
	recv := recvTypeName(n.Fn)
	if recv != "" {
		return pkgBase(n.Pkg.Path) + "." + recv + "." + n.Fn.Name()
	}
	return pkgBase(n.Pkg.Path) + "." + n.Fn.Name()
}

// EdgeKind classifies how a call edge was established.
//
//caer:enum
type EdgeKind int

const (
	// EdgeStatic is a direct call to a concrete function or method.
	EdgeStatic EdgeKind = iota
	// EdgeDefer is a deferred call (runs in the caller's activation).
	EdgeDefer
	// EdgeGo is a go-statement spawn (new goroutine, off the hot path).
	EdgeGo
	// EdgeMethodValue is a function/method value referenced without being
	// called at that site; the holder may invoke it later.
	EdgeMethodValue
	// EdgeInterface is a dynamic dispatch, conservatively resolved to
	// every in-module implementation of the interface method.
	EdgeInterface
	numEdgeKinds
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeDefer:
		return "defer"
	case EdgeGo:
		return "go"
	case EdgeMethodValue:
		return "methodvalue"
	case EdgeInterface:
		return "interface"
	default:
		return "edge?"
	}
}

var _ = numEdgeKinds

// Edge is one caller→callee relationship.
type Edge struct {
	From, To *Node
	Kind     EdgeKind
	Pos      token.Pos
}

// BuildCallGraph constructs the static call graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes: make(map[*types.Func]*Node),
		tpkgs: make(map[*types.Package]bool),
	}

	// Pass 1: one node per function declaration.
	for _, pkg := range pkgs {
		g.tpkgs[pkg.Types] = true
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.nodes[fn] = &Node{Fn: fn, Decl: fd, Pkg: pkg}
				}
			}
		}
	}

	// The interface-method index: every node that is a method, grouped by
	// name, for conservative dynamic-dispatch resolution.
	methodsByName := make(map[string][]*Node)
	for _, n := range g.nodes {
		if recvType(n.Fn) != nil {
			methodsByName[n.Fn.Name()] = append(methodsByName[n.Fn.Name()], n)
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.addEdges(g.nodes[fn], pkg, fd, methodsByName)
			}
		}
	}

	// Deterministic edge order (build iterates maps).
	for _, n := range g.nodes {
		sortEdges(n.Out)
		sortEdges(n.In)
	}
	return g
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Pos != es[j].Pos {
			return es[i].Pos < es[j].Pos
		}
		if es[i].Kind != es[j].Kind {
			return es[i].Kind < es[j].Kind
		}
		return es[i].To.Label() < es[j].To.Label()
	})
}

// Lookup returns the node for fn, or nil when fn is not declared in the
// loaded packages.
func (g *CallGraph) Lookup(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every node in deterministic (label) order.
func (g *CallGraph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// addEdges walks one function body and records its outgoing edges.
func (g *CallGraph) addEdges(from *Node, pkg *Package, fd *ast.FuncDecl, methodsByName map[string][]*Node) {
	// callFuns marks expressions that are the operator of a call (so a
	// second walk can tell method *values* from call sites).
	callFuns := make(map[ast.Expr]bool)
	seen := make(map[edgeKey]bool)

	connect := func(to *Node, kind EdgeKind, pos token.Pos) {
		if to == nil {
			return
		}
		k := edgeKey{to: to, kind: kind}
		if seen[k] {
			return
		}
		seen[k] = true
		e := Edge{From: from, To: to, Kind: kind, Pos: pos}
		from.Out = append(from.Out, e)
		to.In = append(to.In, e)
	}

	resolveCall := func(call *ast.CallExpr, kind EdgeKind) {
		callFuns[call.Fun] = true
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
				connect(g.nodes[f], kind, call.Pos())
			}
		case *ast.SelectorExpr:
			f, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
			if !ok {
				return
			}
			if sel, isSel := pkg.Info.Selections[fun]; isSel && isInterfaceRecv(sel.Recv()) {
				// Dynamic dispatch: resolve conservatively to every
				// in-module implementation, but only for interfaces the
				// loaded packages declare.
				if !g.declaredInPackages(sel.Recv()) {
					return
				}
				ifaceKind := EdgeInterface
				if kind == EdgeGo {
					ifaceKind = EdgeGo
				}
				for _, impl := range implementations(sel.Recv(), fun.Sel.Name, methodsByName) {
					connect(impl, ifaceKind, call.Pos())
				}
				return
			}
			connect(g.nodes[f], kind, call.Pos())
		}
	}

	handled := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if !handled[node] {
				resolveCall(node, EdgeStatic)
			}
		case *ast.DeferStmt:
			handled[node.Call] = true
			resolveCall(node.Call, EdgeDefer)
		case *ast.GoStmt:
			handled[node.Call] = true
			resolveCall(node.Call, EdgeGo)
		}
		return true
	})

	// Second walk: function/method values referenced outside call-operator
	// position.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.Ident:
			if f, ok := pkg.Info.Uses[node].(*types.Func); ok && !callFuns[ast.Expr(node)] {
				connect(g.nodes[f], EdgeMethodValue, node.Pos())
			}
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(node)] {
				return false // the Sel ident below is the call operator
			}
			if f, ok := pkg.Info.Uses[node.Sel].(*types.Func); ok {
				connect(g.nodes[f], EdgeMethodValue, node.Pos())
				return false
			}
		}
		return true
	})
}

type edgeKey struct {
	to   *Node
	kind EdgeKind
}

// recvType returns the receiver type of a method, or nil for functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isInterfaceRecv reports whether a selection receiver is an interface.
func isInterfaceRecv(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// declaredInPackages reports whether the interface type behind t is
// declared by one of the loaded packages (named type whose object package
// is a graph package). Unnamed interface literals count as declared.
func (g *CallGraph) declaredInPackages(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		if p, isPtr := t.(*types.Pointer); isPtr {
			return g.declaredInPackages(p.Elem())
		}
		return true // anonymous interface: local by construction
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false // error and other universe interfaces
	}
	return g.tpkgs[obj.Pkg()]
}

// implementations resolves an interface-method call to the in-module
// concrete methods that can satisfy it: same name, and the receiver's
// type (or its pointer) implements the interface.
func implementations(iface types.Type, name string, methodsByName map[string][]*Node) []*Node {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, cand := range methodsByName[name] {
		rt := recvType(cand.Fn)
		if rt == nil {
			continue
		}
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// Reachable walks the graph from roots, following edges accepted by
// follow, and returns for every reached node the shortest call path from
// a root (inclusive of both ends). Roots themselves map to a one-element
// path. Nodes for which barrier returns true are not expanded (and not
// reported): they mark reviewed boundaries such as setup-only functions.
func (g *CallGraph) Reachable(roots []*Node, follow func(Edge) bool, barrier func(*Node) bool) map[*Node][]*Node {
	paths := make(map[*Node][]*Node)
	var queue []*Node
	for _, r := range roots {
		if r == nil || paths[r] != nil {
			continue
		}
		paths[r] = []*Node{r}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if paths[e.To] != nil {
				continue
			}
			if barrier != nil && barrier(e.To) {
				continue
			}
			p := make([]*Node, len(paths[n])+1)
			copy(p, paths[n])
			p[len(p)-1] = e.To
			paths[e.To] = p
			queue = append(queue, e.To)
		}
	}
	return paths
}

// HotSet computes the hot-path closure: the //caer:hot roots plus
// everything transitively reachable from them over static, defer, and
// interface edges — stopping at //caer:cold barriers and never crossing a
// go edge (the spawn is its own finding; the spawned body runs off the
// period loop). Method values are likewise not followed: storing a
// reference costs nothing, and the eventual caller is budgeted where the
// call happens.
//
// The returned map carries, per hot function, the label path from a root
// ("caer.Runtime.Step → caer.Runtime.relaunch → ..."); roots map to a
// single-element path.
func (g *CallGraph) HotSet(idx *Directives) map[*types.Func][]string {
	hot := make(map[*types.Func][]string)
	for node, path := range g.hotReach(g.hotRoots(idx), idx) {
		hot[node.Fn] = labels(path)
	}
	return hot
}

// hotRoots returns the //caer:hot nodes in label order.
func (g *CallGraph) hotRoots(idx *Directives) []*Node {
	var roots []*Node
	for _, n := range g.Nodes() {
		if idx.has(n.Fn, verbHot) {
			roots = append(roots, n)
		}
	}
	return roots
}

// hotReach walks the graph from roots under the hot-propagation rules.
func (g *CallGraph) hotReach(roots []*Node, idx *Directives) map[*Node][]*Node {
	return g.Reachable(roots, followHot, func(n *Node) bool { return idx.has(n.Fn, verbCold) })
}

// followHot reports whether hot propagation crosses e. Go edges are not
// followed: a spawned goroutine runs off the period budget (and gets its
// own lifecycle analyzer). Nor are method values: one is only hot if some
// hot function eventually calls it, which shows up as a static or
// interface edge at that call site.
func followHot(e Edge) bool {
	return e.Kind == EdgeStatic || e.Kind == EdgeDefer || e.Kind == EdgeInterface
}

// labels renders a node path as labels.
func labels(path []*Node) []string {
	out := make([]string, len(path))
	for i, n := range path {
		out[i] = n.Label()
	}
	return out
}

// pkgBase returns the last element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// recvTypeName extracts the bare receiver type name of a method
// declaration ("Engine" from func (e *Engine) Tick...), or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
