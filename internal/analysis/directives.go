package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The analyzers read what they check from directive comments on the
// declarations concerned, so the inventory cannot drift from the code (a
// rename carries its directive along). A directive is a line of the
// declaration's doc comment; gofmt keeps it last:
//
//	//caer:hot             a per-period root; the call graph derives the rest of the hot path
//	//caer:cold <reason>   a reviewed barrier that hot propagation stops at
//	//caer:alloc           an API that allocates by contract, banned on the hot path
//	//caer:enum            a type whose switches must be exhaustive
//	//caer:deterministic   a function, or (on the package clause) a package, held to the determinism rules
//
// //caer:allow, the line-scoped suppression, shares the comment walk.
const (
	verbHot           = "hot"
	verbCold          = "cold"
	verbAlloc         = "alloc"
	verbEnum          = "enum"
	verbDeterministic = "deterministic"
	verbAllow         = "allow"
)

// directiveTargets lists the declaration kinds each directive may document.
var directiveTargets = map[string][]string{
	verbHot:           {"func"},
	verbCold:          {"func"},
	verbAlloc:         {"func"},
	verbEnum:          {"type"},
	verbDeterministic: {"func", "package clause"},
}

// directive is one //caer:<verb> comment and the declaration it documents.
type directive struct {
	verb, reason string
	pos          token.Position
	on           any    // the annotated types.Object, or *types.Package on a package clause
	problem      string // non-empty when malformed; malformed directives are not indexed
}

// Directives indexes directives by the types.Object (or *types.Package)
// they annotate.
type Directives struct {
	marks map[mark]bool
}

type mark struct {
	on   any
	verb string
}

// has reports whether on carries the directive verb. Instantiated
// generic methods resolve to their declared origin.
func (d *Directives) has(on any, verb string) bool {
	if fn, ok := on.(*types.Func); ok {
		on = fn.Origin()
	}
	return d.marks[mark{on, verb}]
}

// comments is one package's parsed //caer: comments.
type comments struct {
	sups []*suppression
	dirs []*directive
}

// indexDirectives scans every package the loaders of pkgs parsed, their
// module-internal dependencies included, so a single-package run still
// sees //caer:alloc on an imported API. It returns the index and each
// package's parsed comments.
func indexDirectives(pkgs []*Package) (*Directives, map[*Package]*comments) {
	all := slices.Clone(pkgs)
	for _, p := range pkgs {
		if p.loader != nil {
			for _, q := range p.loader.pkgs {
				all = append(all, q)
			}
		}
	}
	idx := &Directives{marks: make(map[mark]bool)}
	scanned := make(map[*Package]*comments)
	for _, p := range all {
		if p == nil || scanned[p] != nil {
			continue
		}
		scanned[p] = collectComments(p)
		for _, d := range scanned[p].dirs {
			if d.problem == "" {
				idx.marks[mark{d.on, d.verb}] = true
			}
		}
	}
	return idx, scanned
}

// docTarget is the declaration a doc comment documents.
type docTarget struct {
	kind string // "func", "type", "var", "const", "import", "package clause", "declaration group"
	on   any
}

// docTargets maps every doc comment of f to its declaration.
func docTargets(pkg *Package, f *ast.File) map[*ast.CommentGroup]docTarget {
	targets := make(map[*ast.CommentGroup]docTarget)
	add := func(doc *ast.CommentGroup, kind string, on any) {
		if doc != nil {
			targets[doc] = docTarget{kind, on}
		}
	}
	add(f.Doc, "package clause", pkg.Types)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Doc, "func", pkg.Info.Defs[d.Name])
		case *ast.GenDecl:
			add(d.Doc, "declaration group", nil)
			for _, spec := range d.Specs {
				var on any
				var doc *ast.CommentGroup
				switch s := spec.(type) {
				case *ast.TypeSpec:
					on, doc = pkg.Info.Defs[s.Name], s.Doc
				case *ast.ValueSpec:
					doc = s.Doc
				}
				if !d.Lparen.IsValid() {
					doc = d.Doc // an ungrouped declaration's doc sits on the GenDecl
				}
				add(doc, d.Tok.String(), on)
			}
		}
	}
	return targets
}

// collectComments parses the package's //caer: comments in one walk:
// //caer:allow suppressions and the declaration directives.
func collectComments(pkg *Package) *comments {
	c := &comments{}
	for _, f := range pkg.Files {
		targets := docTargets(pkg, f)
		for _, cg := range f.Comments {
			for _, line := range cg.List {
				text, ok := strings.CutPrefix(line.Text, "//caer:")
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				args := strings.Fields(rest)
				pos := pkg.Fset.Position(line.Pos())
				if verb == verbAllow {
					c.sups = append(c.sups, newSuppression(pos, args))
					continue
				}
				target, attached := targets[cg]
				d := &directive{verb: verb, reason: strings.Join(args, " "), pos: pos, on: target.on}
				kinds, known := directiveTargets[verb]
				switch {
				case !known:
					d.problem = fmt.Sprintf("unknown directive //caer:%s (have allow, alloc, cold, "+
						"deterministic, enum, hot)", verb)
				case !attached:
					d.problem = fmt.Sprintf("//caer:%s is not in a declaration's doc comment, "+
						"so it annotates nothing", verb)
				case !slices.Contains(kinds, target.kind) || target.on == nil:
					d.problem = fmt.Sprintf("//caer:%s documents a %s; it belongs on a %s",
						verb, target.kind, strings.Join(kinds, " or "))
				case verb == verbCold && d.reason == "":
					d.problem = "//caer:cold needs a reason: //caer:cold <reason> " +
						"(an unexplained barrier is unreviewable)"
				}
				c.dirs = append(c.dirs, d)
			}
		}
	}
	return c
}

// directiveFindings reports one package's directive hygiene: a malformed
// directive is always a finding; under Config.ReportUnusedSuppressions so
// are a //caer:cold no hot function calls and a //caer:hot another root
// already reaches. Both need the whole call graph, which is why the gates
// run ./... (a partial run cannot see roots in packages it does not load).
func directiveFindings(dirs []*directive, g *CallGraph, idx *Directives,
	hot map[*types.Func][]string, cfg *Config) []Finding {
	var out []Finding
	report := func(d *directive, format string, args ...any) {
		out = append(out, Finding{Analyzer: Suppression.Name, Pos: d.pos, Message: fmt.Sprintf(format, args...)})
	}
	var roots []*Node
	if cfg.ReportUnusedSuppressions {
		roots = g.hotRoots(idx)
	}
	for _, d := range dirs {
		fn, _ := d.on.(*types.Func)
		node := g.Lookup(fn)
		switch {
		case d.problem != "":
			report(d, "%s", d.problem)
		case !cfg.ReportUnusedSuppressions || node == nil:
		case d.verb == verbCold && !slices.ContainsFunc(node.In, func(e Edge) bool {
			return followHot(e) && hot[e.From.Fn] != nil
		}):
			report(d, "cold barrier %s stops nothing: no hot function calls it; "+
				"delete the directive", node.Label())
		case d.verb == verbHot:
			others := slices.DeleteFunc(slices.Clone(roots), func(r *Node) bool { return r == node })
			if path := g.hotReach(others, idx)[node]; path != nil {
				report(d, "hot root %s is already reached from another root (%s); "+
					"the call graph derives it, delete the directive",
					node.Label(), strings.Join(labels(path), " -> "))
			}
		}
	}
	return out
}
