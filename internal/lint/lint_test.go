package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantPattern matches golden annotations in fixture files:
//
//	// want:<check> "<message substring>"
var wantPattern = regexp.MustCompile(`// want:([a-z]+) "([^"]*)"`)

type expectation struct {
	file   string
	line   int
	check  string
	substr string
}

func collectWants(t *testing.T, root string) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantPattern.FindAllStringSubmatch(line, -1) {
				wants = append(wants, expectation{file: path, line: i + 1, check: m[1], substr: m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestGoldenFixtures loads the fixture module under testdata/src, runs the
// full suite, and requires the findings to match the // want annotations
// exactly — every annotated line reported with the annotated substring, and
// nothing else reported. Suppressed lines carry //sirum:allow and no
// annotation, so a broken suppression path fails as an unexpected finding.
func TestGoldenFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(root, "sirum")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	findings := RunChecks(m, nil)
	wants := collectWants(t, root)
	if len(wants) == 0 {
		t.Fatal("no // want annotations found under testdata/src")
	}

	type key struct {
		file  string
		line  int
		check string
	}
	unmatched := make(map[key]expectation, len(wants))
	for _, w := range wants {
		unmatched[key{w.file, w.line, w.check}] = w
	}
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line, f.Check}
		w, ok := unmatched[k]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, w.substr) {
			t.Errorf("finding at %s:%d [%s]: message %q does not contain %q",
				f.Pos.Filename, f.Pos.Line, f.Check, f.Message, w.substr)
		}
		delete(unmatched, k)
	}
	for _, w := range unmatched {
		t.Errorf("missing finding: %s:%d [%s] (want message containing %q)", w.file, w.line, w.check, w.substr)
	}
}

// TestSuiteNames pins the advertised check set: CI and the README refer to
// these names, and //sirum:allow directives key on them.
func TestSuiteNames(t *testing.T) {
	want := []string{"zerocopykey", "pinnedencode", "pairedlifecycle", "errprefix", "metricname", "importboundary"}
	got := CheckNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("check names = %v, want %v", got, want)
	}
}

// TestModuleClean runs the whole suite over this repository and requires a
// clean bill: the tree must stay sirumvet-clean, with every justified
// exception carrying an explicit //sirum:allow annotation. This is the same
// gate CI applies via `go run ./cmd/sirumvet ./...`.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check; CI covers this via the sirumvet step")
	}
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "sirum" {
		t.Fatalf("module = %q, want sirum", module)
	}
	m, err := Load(root, module)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings := RunChecks(m, nil)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSuppressionDirective covers the directive parser: same-line and
// line-above placement, comma-separated check lists, and the reason text.
func TestSuppressionDirective(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(root, "sirum")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range m.Pkgs {
		if !strings.HasSuffix(pkg.Path, "internal/rule") {
			continue
		}
		sup := collectSuppressions(pkg)
		var hit bool
		for file, byLine := range sup {
			for k := range byLine {
				if strings.HasSuffix(k, "\x00zerocopykey") {
					hit = true
				}
				_ = file
			}
		}
		if !hit {
			t.Fatal("no zerocopykey suppression parsed from the rule fixture")
		}
		return
	}
	t.Fatal("rule fixture package not loaded")
}
