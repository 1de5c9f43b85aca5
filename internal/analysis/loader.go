package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. "caer/internal/comm"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // the loader that parsed it, for dependency directives
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved by walking the
// module tree recursively; standard-library imports are delegated to the
// go/importer source importer (which type-checks GOROOT source, so no
// compiled export data is needed). Test files are not loaded — the
// invariants caer-vet guards live in the runtime itself.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = no buildable files
	loading map[string]bool     // cycle detection
}

// NewLoader returns a loader rooted at modRoot for the given module path.
func NewLoader(modRoot, modPath string) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		ModRoot: modRoot,
		ModPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (modRoot, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := modulePathFromGoMod(data)
			if path == "" {
				return "", "", fmt.Errorf("analysis: no module line in %s", filepath.Join(d, "go.mod"))
			}
			return d, path, nil
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
	}
}

// modulePathFromGoMod extracts the module path from go.mod contents.
func modulePathFromGoMod(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// importPathFor maps an absolute package directory to its import path
// within the loader's module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package in dir (absolute or relative to
// the module root). It returns (nil, nil) when the directory holds no
// buildable Go files for the current build context.
func (l *Loader) Load(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.ModRoot, dir)
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path, dir)
}

func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ctxt := build.Default
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			l.pkgs[path] = nil
			return nil, nil
		}
		return nil, fmt.Errorf("analysis: scan %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	names = append(names, bp.CgoFiles...)
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:    importerFunc(l.importFrom(dir)),
		Sizes:       types.SizesFor("gc", ctxt.GOARCH),
		FakeImportC: true,
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importFrom returns the import resolver used while type-checking a
// package in dir: module-internal paths recurse into the loader, anything
// else goes to the shared source importer over GOROOT.
func (l *Loader) importFrom(dir string) func(path string) (*types.Package, error) {
	return func(path string) (*types.Package, error) {
		switch {
		case path == "unsafe":
			return types.Unsafe, nil
		case path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/"):
			sub := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
			pkg, err := l.loadPath(path, filepath.Join(l.ModRoot, filepath.FromSlash(sub)))
			if err != nil {
				return nil, err
			}
			if pkg == nil {
				return nil, fmt.Errorf("analysis: no Go files in %q", path)
			}
			return pkg.Types, nil
		default:
			if l.std == nil {
				l.std = importer.ForCompiler(l.Fset, "source", nil)
			}
			return l.std.Import(path)
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ExpandPatterns resolves package patterns against the module root into
// package directories. A pattern is either a directory (absolute, or
// relative to modRoot) or a "dir/..." wildcard that walks the tree. The
// conventional skip list applies: testdata, vendor, hidden and
// underscore-prefixed directories are never visited.
func ExpandPatterns(modRoot string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(modRoot, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
