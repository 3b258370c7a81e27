package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic: a violated invariant at a position.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Check is one project invariant. Run inspects a single package and reports
// findings through report; the driver handles suppression and aggregation.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Package, report func(pos token.Pos, format string, args ...any))
}

// Checks returns the full suite in stable order.
func Checks() []*Check {
	return []*Check{
		zeroCopyKeyCheck(),
		pinnedEncodeCheck(),
		pairedLifecycleCheck(),
		errPrefixCheck(),
		metricNameCheck(),
		importBoundaryCheck(),
	}
}

// CheckNames returns the names of every check in the suite.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// allowDirective is the line-comment prefix that suppresses findings.
const allowDirective = "//sirum:allow"

// suppressions maps filename → line → set of suppressed check names. A
// directive suppresses its own line and the line directly below it, so both
// trailing comments and own-line comments above the code work.
type suppressions map[string]map[string]bool

func suppressionKey(line int, check string) string {
	return fmt.Sprintf("%d\x00%s", line, check)
}

func collectSuppressions(p *Package) suppressions {
	sup := make(suppressions)
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		byLine := sup[filename]
		if byLine == nil {
			byLine = make(map[string]bool)
			sup[filename] = byLine
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				for _, name := range strings.Split(fields[0], ",") {
					byLine[suppressionKey(line, name)] = true
					byLine[suppressionKey(line+1, name)] = true
				}
			}
		}
	}
	return sup
}

func (s suppressions) suppressed(f Finding) bool {
	byLine := s[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[suppressionKey(f.Pos.Line, f.Check)] || byLine[suppressionKey(f.Pos.Line, "all")]
}

// RunChecks runs the given checks (all when nil) over every package of m,
// applies //sirum:allow suppressions, and returns findings sorted by
// position.
func RunChecks(m *Module, checks []*Check) []Finding {
	if checks == nil {
		checks = Checks()
	}
	var findings []Finding
	for _, pkg := range m.Pkgs {
		sup := collectSuppressions(pkg)
		for _, c := range checks {
			report := func(pos token.Pos, format string, args ...any) {
				f := Finding{Check: c.Name, Pos: pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
				if !sup.suppressed(f) {
					findings = append(findings, f)
				}
			}
			c.Run(pkg, report)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return findings
}

// pathIn reports whether the package's import path ends in one of the given
// module-relative suffixes (e.g. "internal/rule").
func pathIn(p *Package, suffixes ...string) bool {
	for _, s := range suffixes {
		if p.Path == s || strings.HasSuffix(p.Path, "/"+s) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file node comes from a _test.go file. The
// loader only parses non-test files, so this is a belt-and-braces guard.
func isTestFile(p *Package, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// inspectWithStack walks root, calling fn with each node and the ancestor
// stack (stack[len(stack)-1] == n).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(n, stack)
		return true
	})
}

// parentOf returns the nearest non-paren ancestor of the node at the top of
// the stack.
func parentOf(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}
