package miner

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sirum/internal/candgen"
	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/metrics"
)

// assertSameRules compares two runs of the same job.
func assertSameRules(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Rules) == 0 {
		t.Fatalf("%s: reference run mined nothing", label)
	}
	if len(want.Rules) != len(got.Rules) {
		t.Fatalf("%s: rule counts differ: %d vs %d", label, len(want.Rules), len(got.Rules))
	}
	for i := range want.Rules {
		if !want.Rules[i].Rule.Equal(got.Rules[i].Rule) {
			t.Errorf("%s rule %d: %v vs %v", label, i, want.Rules[i].Rule, got.Rules[i].Rule)
		}
		if want.Rules[i].Count != got.Rules[i].Count {
			t.Errorf("%s rule %d count: %d vs %d", label, i, want.Rules[i].Count, got.Rules[i].Count)
		}
	}
	if math.Abs(want.KL-got.KL) > 1e-9*math.Max(1, math.Abs(want.KL)) {
		t.Errorf("%s KL: %v vs %v", label, want.KL, got.KL)
	}
}

// TestPreparedMatchesColdAcrossVariants pins the carve-up: a query against
// prepared state (with the LCA memo active) returns exactly what a cold run
// of the same job returns, for sampled, exhaustive and multi-rule shapes.
func TestPreparedMatchesColdAcrossVariants(t *testing.T) {
	ds := datagen.GDELT(2000, 42)
	c := testCluster()
	defer c.Close()
	p, err := Prepare(c, ds, PrepOptions{SampleSize: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drop()
	jobs := []Options{
		{Variant: Optimized, K: 4, SampleSize: 16, Seed: 9},
		{Variant: Baseline, K: 3, SampleSize: 16, Seed: 9},
		{Variant: RCT, K: 3, SampleSize: 16, Seed: 9},
		{Variant: MultiRule, K: 4, SampleSize: 16, Seed: 9},
		{Variant: Optimized, K: 2, SampleSize: 0, Seed: 9}, // exhaustive
		{Variant: Optimized, K: 3, SampleSize: 8, Seed: 4}, // off-sample: query draws its own
	}
	for _, opt := range jobs {
		cold := mineDataset(t, ds, opt)
		warm, err := p.Mine(opt)
		if err != nil {
			t.Fatalf("%v: %v", opt.Variant, err)
		}
		assertSameRules(t, opt.Variant.String(), cold, warm)
		// Run each job twice so the second query exercises the memoized
		// path end to end.
		warm2, err := p.Mine(opt)
		if err != nil {
			t.Fatalf("%v (2nd): %v", opt.Variant, err)
		}
		assertSameRules(t, opt.Variant.String()+" (2nd)", cold, warm2)
	}
}

// TestTwoPrepsShareOneBackend: two sessions prepared on one backend answer
// interleaved queries independently, and one that is dropped reloads its
// blocks on its next query while the other keeps serving.
func TestTwoPrepsShareOneBackend(t *testing.T) {
	c := testCluster()
	defer c.Close()
	dsA := datagen.GDELT(1200, 7)
	dsB := datagen.Income(1200, 8)
	pA, err := Prepare(c, dsA, PrepOptions{SampleSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pA.Drop()
	pB, err := Prepare(c, dsB, PrepOptions{SampleSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pB.Drop()
	opt := Options{Variant: Optimized, K: 3, SampleSize: 8, Seed: 3}
	coldA := mineDataset(t, dsA, opt)
	coldB := mineDataset(t, dsB, opt)
	for round := 0; round < 2; round++ {
		gotA, err := pA.Mine(opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRules(t, "A", coldA, gotA)
		gotB, err := pB.Mine(opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRules(t, "B", coldB, gotB)
		if round == 0 {
			pA.Drop()
		}
	}
}

// TestDataLoadChargedToTheLoadingQuery pins who pays for reading the data:
// a cold run loads it, a query on a prepared session finds it loaded, and
// the first query after Drop loads it again. The simulated data_load phase
// is compared, because the wall-clock one also times the query's fork.
func TestDataLoadChargedToTheLoadingQuery(t *testing.T) {
	ds := datagen.Income(1500, 4)
	opt := Options{Variant: Optimized, K: 2, SampleSize: 8, Seed: 2}
	assertLoad := func(label string, res *Result, loaded bool) {
		t.Helper()
		bytes, simLoad := res.Counters[metrics.CtrDiskReadBytes], res.SimPhases[metrics.PhaseDataLoad]
		if loaded && (bytes != ds.ApproxBytes() || simLoad <= 0 || res.Phases[metrics.PhaseDataLoad] <= 0) {
			t.Errorf("%s: disk_read_bytes %d (want %d), data_load %v sim %v, want a charged load",
				label, bytes, ds.ApproxBytes(), res.Phases[metrics.PhaseDataLoad], simLoad)
		}
		if !loaded && (bytes != 0 || simLoad != 0) {
			t.Errorf("%s: disk_read_bytes %d, sim data_load %v, want no load", label, bytes, simLoad)
		}
	}
	assertLoad("cold run", mineDataset(t, ds, opt), true)

	c := testCluster()
	defer c.Close()
	p := mustPrepare(t, c, ds, PrepOptions{SampleSize: 8, Seed: 2})
	assertLoad("prepared query", mustMine(t, p, opt), false)
	p.Drop()
	assertLoad("query after Drop", mustMine(t, p, opt), true)
	assertLoad("query after reload", mustMine(t, p, opt), false)
}

// TestPrepConcurrentDropAndQueries races Drop against queries on one Prep
// whose blocks spill (the cache budget is far below the data), so a fork
// that read a dropped cache would fail: every query must still answer the
// cold run's rules.
func TestPrepConcurrentDropAndQueries(t *testing.T) {
	ds := datagen.Income(2000, 6)
	conf := engine.Config{Executors: 1, MemoryPerExecutor: 20 << 10, Partitions: 8}
	opt := Options{Variant: Optimized, K: 3, SampleSize: 16, Seed: 2}
	coldBackend := engine.NewNativeBackend(conf)
	defer coldBackend.Close()
	cold, err := New(coldBackend, ds, opt).Run()
	if err != nil {
		t.Fatal(err)
	}

	c := engine.NewNativeBackend(conf)
	defer c.Close()
	p := mustPrepare(t, c, ds, PrepOptions{SampleSize: 16, Seed: 2})
	const queriers, queries, drops = 6, 3, 20
	var wg sync.WaitGroup
	results := make([][]*Result, queriers)
	errs := make([]error, queriers+1)
	for g := range queriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range queries {
				res, err := p.Mine(opt)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], res)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range drops {
			time.Sleep(time.Millisecond) // spread the drops over the queries
			p.Drop()
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g, rs := range results {
		for i, res := range rs {
			assertSameRules(t, fmt.Sprintf("querier %d query %d", g, i), cold, res)
		}
	}
}

// TestPreparedFractionMismatchRejected: a query cannot change the Bernoulli
// data sample the session was prepared with.
func TestPreparedFractionMismatchRejected(t *testing.T) {
	ds := datagen.Income(3000, 5)
	c := testCluster()
	defer c.Close()
	p, err := Prepare(c, ds, PrepOptions{SampleSize: 8, Seed: 2, SampleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drop()
	if _, err := p.Mine(Options{K: 2, SampleSize: 8, Seed: 2, SampleFraction: 0.25}); err == nil {
		t.Error("mismatched SampleFraction accepted")
	}
	// Zero (unset) and the prepared fraction both work.
	if _, err := p.Mine(Options{K: 2, SampleSize: 8, Seed: 2}); err != nil {
		t.Errorf("unset fraction rejected: %v", err)
	}
	res, err := p.Mine(Options{K: 2, SampleSize: 8, Seed: 2, SampleFraction: 0.5, EvaluateOnFullData: true})
	if err != nil {
		t.Fatalf("matching fraction rejected: %v", err)
	}
	if res.InfoGain <= 0 {
		t.Errorf("full-data info gain = %v", res.InfoGain)
	}
}

// TestForkSpillFilesReleased: under memory pressure, per-query forks spill
// blocks to disk; those files must be released when the query ends, or a
// serving session would grow disk without bound. Only the canonical blocks
// may stay spilled.
func TestForkSpillFilesReleased(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // hermetic: don't count other tests' spill dirs
	ds := datagen.GDELT(5000, 3)
	c := engine.NewNativeBackend(engine.Config{Executors: 1, MemoryPerExecutor: 64 << 10})
	defer c.Close()
	p, err := Prepare(c, ds, PrepOptions{SampleSize: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drop()
	for i := 0; i < 5; i++ {
		if _, err := p.Mine(Options{K: 2, SampleSize: 8, Seed: 2}); err != nil {
			t.Fatal(err)
		}
	}
	dirs, _ := filepath.Glob(os.TempDir() + "/sirum-spill-*")
	total := 0
	for _, d := range dirs {
		files, _ := filepath.Glob(d + "/*.gob")
		total += len(files)
	}
	if total > p.parts {
		t.Fatalf("%d spill files remain after 5 queries; at most the %d canonical blocks may stay spilled", total, p.parts)
	}
}

// TestPrepareEmptyDataset preserves the cold-path error contract.
func TestPrepareEmptyDataset(t *testing.T) {
	c := testCluster()
	defer c.Close()
	b := engine.NewNativeBackend(engine.Config{})
	defer b.Close()
	empty := datagen.Flights().Select(nil)
	if _, err := Prepare(c, empty, PrepOptions{}); err == nil {
		t.Error("prepared an empty dataset")
	}
	if _, err := New(b, empty, Options{K: 2}).Run(); err == nil {
		t.Error("cold run accepted an empty dataset")
	}
}

// TestLCAMemoBuildIsDeterministic: building one space's leaf memo again
// gives the same blocks — keys in first-seen order, rows ascending — for
// packed and string keys, over LCAs and exhaustively. The lattice sorts its
// keys, but the per-round fallback (memoTableParts) inherits the memo's
// order.
func TestLCAMemoBuildIsDeterministic(t *testing.T) {
	ds := datagen.Income(1500, 5)
	c := testCluster()
	defer c.Close()
	p := mustPrepare(t, c, ds, PrepOptions{SampleSize: 16, Seed: 3})
	data, err := p.fork(c)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Drop()
	pc, sc := candgen.NewPackedCodec(p.packer), candgen.NewStringCodec(ds.NumDims())
	ix := candgen.BuildIndex(p.sample)
	for _, s := range []*candgen.Sample{p.sample, nil} {
		var first *lcaMemo[uint64]
		var firstStr *lcaMemo[string]
		for i := 0; i < 5; i++ {
			m, err := buildLCAMemo(c, data, s, ix, pc.ForEachLeafKey)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := buildLCAMemo(c, data, s, ix, sc.ForEachLeafKey)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first, firstStr = m, ms
				continue
			}
			if !reflect.DeepEqual(first.blocks, m.blocks) {
				t.Errorf("sample %v: packed build %d differs from the first", s != nil, i)
			}
			if !reflect.DeepEqual(firstStr.blocks, ms.blocks) {
				t.Errorf("sample %v: string build %d differs from the first", s != nil, i)
			}
		}
	}
}
