package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package as the checks see it: its
// import path, syntax (non-test files only), and type information.
type Package struct {
	Path   string
	Module string // path of the module the package belongs to
	Dir    string
	Files  []*ast.File
	Fset   *token.FileSet
	Pkg    *types.Package
	Info   *types.Info
}

// Module is the loaded view of one Go module.
type Module struct {
	Path string // module path from go.mod
	Root string // directory containing go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// loader resolves imports: module-internal paths compile from source under
// the module root, everything else (the standard library) goes through the
// stdlib source importer. No network, no GOPATH, no export data needed.
type loader struct {
	fset   *token.FileSet
	module string
	root   string
	std    types.ImporterFrom
	cache  map[string]*Package
	stdPkg map[string]*types.Package
}

func newLoader(root, module string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		module: module,
		root:   root,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  make(map[string]*Package),
		stdPkg: make(map[string]*types.Package),
	}
}

func (l *loader) Import(p string) (*types.Package, error) { return l.ImportFrom(p, "", 0) }

func (l *loader) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if p == l.module || strings.HasPrefix(p, l.module+"/") {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	if pkg, ok := l.stdPkg[p]; ok {
		return pkg, nil
	}
	pkg, err := l.std.ImportFrom(p, dir, mode)
	if err == nil {
		l.stdPkg[p] = pkg
	}
	return pkg, err
}

// dirFor maps a module import path to its directory.
func (l *loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.module), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.cache[importPath] = nil // cycle marker
	dir := l.dirFor(importPath)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		delete(l.cache, importPath)
		return nil, fmt.Errorf("lint: %s: %v", importPath, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			delete(l.cache, importPath)
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		delete(l.cache, importPath)
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, typeErrs[0])
	}
	if err != nil {
		delete(l.cache, importPath)
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	pkg := &Package{Path: importPath, Module: l.module, Dir: dir, Files: files, Fset: l.fset, Pkg: tpkg, Info: info}
	l.cache[importPath] = pkg
	return pkg, nil
}

// FindModuleRoot walks upward from dir to the nearest go.mod, returning the
// root directory and the module path.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load parses and type-checks every package of the module rooted at root
// (module path module). Directories named testdata, hidden directories and
// directories without buildable Go files are skipped.
func Load(root, module string) (*Module, error) {
	l := newLoader(root, module)
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here; keep walking
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath = path.Join(module, filepath.ToSlash(rel))
		}
		paths = append(paths, importPath)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	m := &Module{Path: module, Root: root, Fset: l.fset}
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}
