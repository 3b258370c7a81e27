package lint

import (
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// servingPath lists, module-relative, the packages a production request
// runs through: the library, the daemon, the router and their commands
// ("" is the module's root package).
var servingPath = []string{"", "internal/server", "internal/router", "cmd/sirumd", "cmd/sirumr"}

// offServingPath lists, module-relative, the packages the serving path must
// never link: the paper's figure harness, its platform cost profiles and the
// repository benchmark.
var offServingPath = []string{"internal/experiments", "internal/platform", "benchmark"}

func importBoundaryCheck() *Check {
	return &Check{
		Name: "importboundary",
		Doc:  "the serving path must not import, even transitively, the figure harness, platform profiles or benchmark",
		Run:  runImportBoundary,
	}
}

func runImportBoundary(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if rel, _ := moduleRel(p.Module, p.Path); !slices.Contains(servingPath, rel) {
		return
	}
	byPath := make(map[string]*types.Package)
	for _, imp := range p.Pkg.Imports() {
		byPath[imp.Path()] = imp
	}
	memo := make(map[string]string)
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || byPath[path] == nil {
				continue
			}
			if rel, in := moduleRel(p.Module, path); in && slices.Contains(servingPath, rel) {
				continue // a serving import answers for itself
			}
			switch off := offPathReached(p.Module, byPath[path], memo); {
			case off == path:
				report(spec.Path.Pos(), "serving package %s must not import %s", p.Path, path)
			case off != "":
				report(spec.Path.Pos(), "serving package %s must not import %s: it reaches %s", p.Path, path, off)
			}
		}
	}
}

// offPathReached returns the first off-serving-path package that pkg is or
// imports, transitively, or "" when there is none. memo caches the answer
// per import path.
func offPathReached(module string, pkg *types.Package, memo map[string]string) string {
	rel, inModule := moduleRel(module, pkg.Path())
	if !inModule {
		return "" // the standard library imports no module package
	}
	if off, ok := memo[rel]; ok {
		return off
	}
	off := ""
	if slices.ContainsFunc(offServingPath, func(o string) bool { return rel == o || strings.HasPrefix(rel, o+"/") }) {
		off = pkg.Path()
	}
	imports := pkg.Imports()
	for i := 0; off == "" && i < len(imports); i++ {
		off = offPathReached(module, imports[i], memo)
	}
	memo[rel] = off
	return off
}

// moduleRel returns path relative to module ("" for the root package) and
// whether path lies inside the module at all.
func moduleRel(module, path string) (string, bool) {
	if path == module {
		return "", true
	}
	return strings.CutPrefix(path, module+"/")
}
