package sirum

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sirum/internal/engine"
	"sirum/internal/explore"
	"sirum/internal/miner"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenPrepared is the file TestPreparedAnswersGolden holds prepared
// answers to.
const goldenPrepared = "testdata/prepared_answers.golden"

// TestPreparedAnswersGolden holds the answers of prepared sessions to a
// golden file, one line per query: every mined rule (codes, count, average
// and gain bits) and the final KL bits. The grid covers both candidate
// spaces a session builds — exhaustive and the |s| = 64 sample, whose seeds
// 2 and 3 draw a sample of their own — under every multi-round selection
// path, plus exploration with one and with nine examined group-bys. A change
// that moves which candidates are scored, or in what order they are ranked,
// fails here unless every answer stays bit-identical. Run with -update to
// rewrite the file after a change that is meant to move answers; -short runs
// the income/1000 lines at two K and two seeds. The simulated cluster runs
// the same tasks on the same pool plus a clock, so its income/1000 answers
// must match the same lines.
func TestPreparedAnswersGolden(t *testing.T) {
	want, err := readGolden(goldenPrepared)
	if err != nil && !*update {
		t.Fatal(err)
	}
	got := map[string]string{}
	var order []string
	rowsGrid, ks, seeds := []int{1000, 3000}, []int{3, 5, 10, 20}, []int64{1, 2, 3}
	if testing.Short() {
		rowsGrid, ks, seeds = []int{1000}, []int{3, 10}, []int64{1, 2}
	}
	conf := engine.Config{Executors: 4, CoresPerExecutor: 2, Partitions: 8}
	for _, rows := range rowsGrid {
		b := engine.NewNativeBackend(conf)
		preparedAnswers(t, b, rows, ks, seeds, func(name string, res *miner.Result) {
			order = append(order, name)
			got[name] = formatAnswer(res)
		})
		b.Close()
	}
	if *update {
		if err := writeGolden(goldenPrepared, order, got); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range order {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s (run with -update)", name, goldenPrepared)
		case got[name] != w:
			t.Errorf("%s moved:\n\tgot  %s\n\twant %s", name, got[name], w)
		}
	}

	sim := engine.NewSimBackend(conf)
	defer sim.Close()
	preparedAnswers(t, sim, 1000, ks, seeds, func(name string, res *miner.Result) {
		if g, w := formatAnswer(res), want[name]; g != w {
			t.Errorf("sim backend: %s moved:\n\tgot  %s\n\twant %s", name, g, w)
		}
	})
}

// preparedAnswers prepares income/rows on b and records the answer of every
// query of the golden grid under its line name.
func preparedAnswers(t *testing.T, b engine.Backend, rows int, ks []int, seeds []int64, record func(string, *miner.Result)) {
	t.Helper()
	ds, err := Generate("income", rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := miner.Prepare(b, ds.ds, miner.PrepOptions{SampleSize: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drop()
	for _, s := range []int{0, 64} {
		for _, v := range []miner.Variant{miner.Optimized, miner.RCT, miner.MultiRule} {
			for _, k := range ks {
				for _, seed := range seeds {
					res, err := p.Mine(miner.Options{K: k, SampleSize: s, Variant: v, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					record(fmt.Sprintf("income/%d mine s=%d %v K=%d seed=%d", rows, s, v, k, seed), res)
				}
			}
		}
	}
	for _, g := range []int{1, 9} {
		for _, k := range ks {
			for _, seed := range seeds {
				rec, err := explore.RunPrepared(p, explore.Options{K: k, GroupBys: g, Optimized: true, MultiRule: true, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				record(fmt.Sprintf("income/%d explore groupbys=%d K=%d seed=%d", rows, g, k, seed), rec.Result)
			}
		}
	}
}

// formatAnswer renders a result bit-exactly: the final KL, then per rule its
// codes (-1 for a wildcard), count, and average and gain bits.
func formatAnswer(res *miner.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kl=%#016x", math.Float64bits(res.KL))
	for _, r := range res.Rules {
		fmt.Fprintf(&sb, " | %v n=%d avg=%#016x gain=%#016x", []int32(r.Rule), r.Count, math.Float64bits(r.Avg), math.Float64bits(r.Gain))
	}
	return sb.String()
}

// readGolden parses "name\tanswer" lines.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, answer, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = answer
	}
	return out, sc.Err()
}

func writeGolden(path string, order []string, answers map[string]string) error {
	var sb strings.Builder
	for _, name := range order {
		sb.WriteString(name + "\t" + answers[name] + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
