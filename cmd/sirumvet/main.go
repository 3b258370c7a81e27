// Command sirumvet runs sirum's project-invariant static-analysis suite
// (internal/lint) over the module: the conventions that keep hot paths
// allocation-free, responses byte-pinned, lifecycles paired, error prefixes
// classifiable, metric names coherent and the serving path fenced off from
// the figure harness, machine-checked.
//
// Usage:
//
//	sirumvet [-checks zerocopykey,errprefix] [-list] [packages]
//
// Package patterns are module-relative ("./...", "./internal/rule",
// "./internal/..."); with none, the whole module is checked. Findings print
// as file:line:col diagnostics; the exit status is 1 when any finding is
// reported, 2 on load errors, 0 on a clean tree. A justified exception is
// annotated in place:
//
//	//sirum:allow <check> <reason>
//
// on the offending line or the line directly above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"

	"sirum/internal/lint"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the available checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sirumvet [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-16s %s\n", c.Name, c.Doc)
		}
		return
	}

	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirumvet:", err)
		os.Exit(2)
	}
	root, module, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirumvet:", err)
		os.Exit(2)
	}
	m, err := lint.Load(root, module)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirumvet:", err)
		os.Exit(2)
	}
	if err := filterPackages(m, root, module, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "sirumvet:", err)
		os.Exit(2)
	}

	findings := lint.RunChecks(m, checks)
	cwd, _ := os.Getwd()
	for _, f := range findings {
		name := f.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sirumvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func selectChecks(names string) ([]*lint.Check, error) {
	if names == "" {
		return nil, nil // all
	}
	byName := make(map[string]*lint.Check)
	for _, c := range lint.Checks() {
		byName[c.Name] = c
	}
	var out []*lint.Check
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(lint.CheckNames(), ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

// filterPackages narrows m.Pkgs to the given patterns. Patterns are
// module-relative paths as the go tool writes them: "./..." keeps
// everything, "./x" keeps one package, "./x/..." keeps a subtree.
func filterPackages(m *lint.Module, root, module string, patterns []string) error {
	if len(patterns) == 0 {
		return nil
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, cwd)
	if err != nil || strings.HasPrefix(rel, "..") {
		return fmt.Errorf("working directory %s is outside module root %s", cwd, root)
	}
	base := module
	if rel != "." {
		base = path.Join(module, filepath.ToSlash(rel))
	}
	keep := func(p string) bool {
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			tree := false
			if strings.HasSuffix(pat, "...") {
				tree = true
				pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			}
			target := base
			if pat != "" && pat != "." {
				target = path.Join(base, pat)
			}
			if p == target || (tree && strings.HasPrefix(p, target+"/")) || (tree && target == module && p == module) {
				return true
			}
		}
		return false
	}
	var kept []*lint.Package
	for _, pkg := range m.Pkgs {
		if keep(pkg.Path) {
			kept = append(kept, pkg)
		}
	}
	if len(kept) == 0 {
		return fmt.Errorf("no packages match %v", patterns)
	}
	m.Pkgs = kept
	return nil
}
