package miner

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// equivalenceDatasets are the four datasets the cross-representation suites
// (candgen's equivalence tests) hold every pipeline to.
func equivalenceDatasets() []struct {
	name string
	ds   *dataset.Dataset
} {
	return []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"income-a", datagen.Income(500, 11)},
		{"income-b", datagen.Income(900, 23)},
		{"gdelt", datagen.GDELT(700, 7)},
		{"flights", datagen.Flights()},
	}
}

// answer is what a query returns once everything that legitimately differs
// between runs (timings, per-query counters) is dropped.
type answer struct {
	Rules        []MinedRule
	KL, InfoGain float64
	KLTrajectory []float64
	Iterations   int
	Candidates   int64
}

func answerOf(r *Result) answer {
	return answer{r.Rules, r.KL, r.InfoGain, r.KLTrajectory, r.Iterations, r.Candidates}
}

func mustPrepare(t *testing.T, c engine.Backend, ds *dataset.Dataset, opt PrepOptions) *Prep {
	t.Helper()
	p, err := Prepare(c, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Drop)
	return p
}

func mustMine(t *testing.T, p *Prep, opt Options) *Result {
	t.Helper()
	res, err := p.Mine(opt)
	if err != nil {
		t.Fatalf("%+v: %v", opt, err)
	}
	return res
}

// ranCube reports whether a query ran the per-round cube: its shuffles move
// every candidate at least once a round, while a replaying query only
// shuffles the scaler's few coverage-table rows.
func ranCube(r *Result) bool {
	return r.Counters[metrics.CtrShuffleRecords] >= r.Counters[metrics.CtrCandidates]
}

// lowerMemoCap sets memoMaxEntries for the rest of the test.
func lowerMemoCap(t *testing.T, entries int) {
	t.Helper()
	old := memoMaxEntries
	memoMaxEntries = entries
	t.Cleanup(func() { memoMaxEntries = old })
}

// roundCandidates runs the first rounds of a query's rule generation by hand
// — a different synthetic estimate column each round, the same on every
// session it is given — and returns each round's full candidate set. It also
// returns the lattice the rounds replayed, nil when they ran the per-round
// pipeline.
func roundCandidates(t *testing.T, p *Prep, opt Options, rounds int) ([]map[uint64]cube.Agg, *lattice) {
	t.Helper()
	qc := engine.NewQueryScope(p.c)
	defer qc.Finish()
	opt = opt.withDefaults()
	q, err := newQuery(p, qc, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer q.data.Drop()
	tr, err := newTableRounds(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[uint64]cube.Agg
	for r := 0; r < rounds; r++ {
		if err := q.data.Scan("test/estimates", true, func(_ int, b *engine.TupleBlock) {
			for i := range b.Mhat {
				b.Mhat[i] = 0.25 + float64((b.Start+i+3*r)%11)/7
			}
		}); err != nil {
			t.Fatal(err)
		}
		lcas, err := tr.leaves()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]cube.Agg)
		var n int64
		if tr.lat != nil {
			slots, ns, err := tr.replayRound(lcas)
			if err != nil {
				t.Fatal(err)
			}
			for slot, k := range slots.Keys {
				got[k] = cube.Agg{SumM: slots.SumM[slot], SumMhat: slots.SumMhat[slot], Count: slots.Count[slot]}
			}
			n = ns
		} else {
			tables, nt, err := tr.computeRound(lcas)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range tables.Parts() {
				part.ForEach(func(k uint64, a cube.Agg) { got[k] = a })
			}
			cube.ReleaseTables(q.c, tables)
			n = nt
		}
		if int64(len(got)) != n {
			t.Fatalf("round %d reports %d candidates, holds %d", r, n, len(got))
		}
		out = append(out, got)
	}
	return out, tr.lat
}

// oneLCAPass is the lca_comparisons of one indexed LCA pass (LCATables) over
// a fresh fork of p with opt's sample: what building that sample's whole
// leaf memo records.
func oneLCAPass(t *testing.T, p *Prep, opt Options) int64 {
	t.Helper()
	qc := engine.NewQueryScope(p.c)
	defer qc.Finish()
	q, err := newQuery(p, qc, opt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer q.data.Drop()
	ix := q.index
	if ix == nil {
		ix = candgen.BuildIndex(q.sample)
	}
	lcas, err := candgen.NewPackedCodec(p.packer).LCATables(qc, q.data, q.sample, true, ix)
	if err != nil {
		t.Fatal(err)
	}
	cube.ReleaseTables(qc, lcas)
	return qc.Reg().Counter(metrics.CtrLCAComparisons)
}

// aggDiff is |a-b| relative to the larger magnitude once that passes 1.
func aggDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestLatticeReplayMatchesPipeline holds lattice replay to the paper-faithful
// per-round pipeline (DisableLCAMemo) over the four equivalence datasets,
// every candidate space a lattice is built over — the prepared sample's,
// a sample of the query's own (whose private memo is indexed even under RCT
// and MultiRule, which prune without the index), exhaustive — each gathering
// its leaves from a memo, and the three variants sessions run: candidate for
// candidate (Σm, Σm̂ and count at 1e-9) over a building round and a replaying
// one, then rule for rule over whole queries.
func TestLatticeReplayMatchesPipeline(t *testing.T) {
	const sample, seed = 5, 31
	for _, tc := range equivalenceDatasets() {
		t.Run(tc.name, func(t *testing.T) {
			cRef, cLat := testCluster(), testCluster()
			defer cRef.Close()
			defer cLat.Close()
			ref := mustPrepare(t, cRef, tc.ds, PrepOptions{SampleSize: sample, Seed: seed, DisableLCAMemo: true})
			lat := mustPrepare(t, cLat, tc.ds, PrepOptions{SampleSize: sample, Seed: seed})
			for _, mode := range []struct {
				name   string
				sample int
				seed   int64
			}{
				{"prepared-sample", sample, seed},
				{"own-sample", sample, seed + 46},
				{"exhaustive", 0, seed},
			} {
				for _, v := range []Variant{Optimized, MultiRule, RCT} {
					label := fmt.Sprintf("%s/%v", mode.name, v)
					opt := Options{Variant: v, K: 4, SampleSize: mode.sample, Seed: mode.seed}

					want, refLat := roundCandidates(t, ref, opt, 2)
					if refLat != nil {
						t.Fatalf("%s: DisableLCAMemo session replayed a lattice", label)
					}
					got, gotLat := roundCandidates(t, lat, opt, 2)
					if gotLat == nil {
						t.Fatalf("%s: session did not take the lattice path", label)
					}
					if gotLat.memo == nil {
						t.Fatalf("%s: lattice does not gather its leaves from a memo", label)
					}
					for r := range want {
						if len(want[r]) != len(got[r]) {
							t.Fatalf("%s round %d: %d candidates, pipeline has %d", label, r, len(got[r]), len(want[r]))
						}
						for k, w := range want[r] {
							g, ok := got[r][k]
							if !ok {
								t.Fatalf("%s round %d: candidate %#x missing from the lattice", label, r, k)
							}
							if aggDiff(w.SumM, g.SumM) > 1e-9 || aggDiff(w.SumMhat, g.SumMhat) > 1e-9 || aggDiff(w.Count, g.Count) > 1e-9 {
								t.Fatalf("%s round %d: candidate %#x: lattice %+v, pipeline %+v", label, r, k, g, w)
							}
						}
					}

					assertSameRules(t, label, mustMine(t, ref, opt), mustMine(t, lat, opt))
					// With redundant-ancestor pruning too: the mask is frozen with
					// the lattice and does not depend on the variant.
					if v == Optimized {
						opt.PruneRedundantAncestors = true
						assertSameRules(t, label+"/pruned", mustMine(t, ref, opt), mustMine(t, lat, opt))
					}
				}
			}
		})
	}
}

// TestLatticeBuilderAndReplayersAnswerIdentically: the round that builds a
// lattice reads its aggregates through the replay program like every later
// one, and the lattice's numbering is canonical — so the query that builds,
// a query that replays, and the building query of another session over the
// same data return the same bits: rules, gains, KL trajectory. The server's
// result cache and the benchmark oracle's repeat check rest on this.
func TestLatticeBuilderAndReplayersAnswerIdentically(t *testing.T) {
	ds := datagen.Income(1500, 5)
	prior := []rule.Rule{rule.AllWildcards(ds.NumDims())}
	prior[0][2] = 1
	for _, opt := range []Options{
		{Variant: Optimized, K: 5, SampleSize: 16, Seed: 3},
		{Variant: RCT, K: 3, SampleSize: 16, Seed: 3, PruneRedundantAncestors: true},
		{Variant: Optimized, K: 3, SampleSize: 0, Seed: 3, PriorRules: prior}, // exhaustive on a sampled session
		{Variant: MultiRule, K: 4, SampleSize: 12, Seed: 8},                   // a sample of the query's own
	} {
		c1, c2 := testCluster(), testCluster()
		fresh := mustPrepare(t, c1, ds, PrepOptions{SampleSize: 16, Seed: 3})
		builder := answerOf(mustMine(t, fresh, opt))
		replayer := answerOf(mustMine(t, fresh, opt))
		other := answerOf(mustMine(t, mustPrepare(t, c2, ds, PrepOptions{SampleSize: 16, Seed: 3}), opt))
		if len(builder.Rules) == 0 {
			t.Fatalf("%+v mined nothing", opt)
		}
		if !reflect.DeepEqual(builder, replayer) {
			t.Errorf("%v/|s|=%d: builder and replayer differ:\n%+v\n%+v", opt.Variant, opt.SampleSize, builder, replayer)
		}
		if !reflect.DeepEqual(builder, other) {
			t.Errorf("%v/|s|=%d: two sessions' builders differ:\n%+v\n%+v", opt.Variant, opt.SampleSize, builder, other)
		}
		c1.Close()
		c2.Close()
	}
}

// TestLatticeBoundedByMemoCap: slots plus edges count against
// memoMaxEntries. Past it the space keeps the per-round table pipeline —
// with the leaf memo when that still fits, without it otherwise — remembers
// the verdict, and mines the same rules; Drop forgets everything and the next
// query rebuilds. A query with a sample of its own makes one LCA pass, into
// its private memo, when that fits the cap, and one pass a round otherwise.
func TestLatticeBoundedByMemoCap(t *testing.T) {
	ds := datagen.GDELT(1200, 42)
	c := testCluster()
	defer c.Close()
	popt := PrepOptions{SampleSize: 8, Seed: 9}
	queries := []Options{
		{Variant: Optimized, K: 4, SampleSize: 8, Seed: 9},
		{Variant: Optimized, K: 3, SampleSize: 0, Seed: 9},
		{Variant: Optimized, K: 3, SampleSize: 8, Seed: 4},
	}
	own := queries[2]
	p := mustPrepare(t, c, ds, popt)
	var want []*Result
	for _, opt := range queries {
		want = append(want, mustMine(t, p, opt))
	}
	onePass := oneLCAPass(t, p, own)
	exh := &p.spaces[spaceExhaustive]
	if exh.lat == nil || p.spaces[spaceSample].lat == nil {
		t.Fatal("default cap: shared lattices not built")
	}
	exhSize := exh.lat.NumSlots() + exh.lat.NumEdges()
	if exhSize <= ds.NumRows() {
		t.Fatalf("exhaustive lattice of %d entries does not outgrow its %d-row memo; pick another dataset", exhSize, ds.NumRows())
	}

	for _, tc := range []struct {
		name     string
		cap      int
		exhMemo  bool
		smpLat   bool
		perRound bool // the exhaustive space is past the cap
	}{
		{"exact fit", exhSize, true, true, false},
		{"one short: memo stays, lattice goes", exhSize - 1, true, true, true},
		{"nothing fits", 50, false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lowerMemoCap(t, tc.cap)
			p := mustPrepare(t, c, ds, popt)
			for round := 0; round < 2; round++ { // the second pass meets the remembered verdict
				for i, opt := range queries {
					got := mustMine(t, p, opt)
					assertSameRules(t, fmt.Sprintf("query %d", i), want[i], got)
					if opt.SampleSize == 0 && ranCube(got) != tc.perRound {
						t.Errorf("exhaustive query ran the per-round cube = %v, want %v", ranCube(got), tc.perRound)
					}
					if opt.Seed == own.Seed {
						passes := int64(got.Iterations)
						if ds.NumRows()*own.SampleSize <= tc.cap {
							passes = 1 // the private memo fits
						} else if passes < 2 {
							t.Fatalf("own-sample query ran %d rounds; need several to tell one pass from one a round", passes)
						}
						if lca := got.Counters[metrics.CtrLCAComparisons]; lca != passes*onePass {
							t.Errorf("own-sample query: lca_comparisons = %d, want %d passes x %d", lca, passes, onePass)
						}
					}
				}
			}
			exh, smp := &p.spaces[spaceExhaustive], &p.spaces[spaceSample]
			if (exh.lat != nil) == tc.perRound || exh.latOff != tc.perRound {
				t.Errorf("exhaustive space: lattice %v, latOff %v", exh.lat != nil, exh.latOff)
			}
			if (exh.memo != nil) != tc.exhMemo {
				t.Errorf("exhaustive memo present = %v, want %v", exh.memo != nil, tc.exhMemo)
			}
			if (smp.lat != nil) != tc.smpLat {
				t.Errorf("sample lattice present = %v, want %v", smp.lat != nil, tc.smpLat)
			}

			p.Drop()
			for i := range p.spaces {
				if sp := &p.spaces[i]; sp.memo != nil || sp.lat != nil || sp.latOff {
					t.Errorf("space %d survives Drop: %+v", i, sp)
				}
			}
			lowerMemoCap(t, 32<<20)
			assertSameRules(t, "after Drop", want[1], mustMine(t, p, queries[1]))
			if exh.lat == nil {
				t.Error("query after Drop did not rebuild the lattice")
			}
		})
	}
}

// TestLatticeReplayCountersHonest: a replayed edge is one emission, a round
// still reports its candidate count, and the three rule-generation phases
// keep their names — all non-zero on rounds that only replay — while the
// cube's shuffle disappears; and two runs of one spec count exactly alike.
// Building a leaf memo counts the LCA comparisons of exactly one LCA pass:
// once per shared space, and once per query, whatever its K, for a sample of
// the query's own.
func TestLatticeReplayCountersHonest(t *testing.T) {
	ds := datagen.Income(1500, 5)
	c := engine.NewNativeBackend(engine.Config{})
	defer c.Close()
	p := mustPrepare(t, c, ds, PrepOptions{SampleSize: 16, Seed: 3})
	const private = -1 // the space of a sample of the query's own
	for _, tc := range []struct {
		name  string
		opt   Options
		space int
	}{
		{"prepared sample", Options{Variant: Optimized, K: 6, SampleSize: 16, Seed: 3}, spaceSample},
		{"exhaustive", Options{Variant: Optimized, K: 3, SampleSize: 0, Seed: 3}, spaceExhaustive},
		{"own sample k=4", Options{Variant: Optimized, K: 4, SampleSize: 16, Seed: 4}, private},
		{"own sample k=8", Options{Variant: Optimized, K: 8, SampleSize: 16, Seed: 4}, private},
	} {
		var onePass int64
		if tc.opt.SampleSize > 0 {
			onePass = oneLCAPass(t, p, tc.opt)
		}
		// A shared space is built by its first query and only replayed by
		// the two measured below; a private one is built by each of them.
		var lat *lattice
		builds := int64(1)
		if tc.space == private {
			_, lat = roundCandidates(t, p, tc.opt, 1)
		} else {
			if got := mustMine(t, p, tc.opt).Counters[metrics.CtrLCAComparisons]; got != onePass {
				t.Errorf("%s: the build counts %d LCA comparisons, one pass counts %d", tc.name, got, onePass)
			}
			lat, builds = p.spaces[tc.space].lat, 0
		}
		if lat == nil || lat.memo == nil {
			t.Fatalf("%s: no lattice over a leaf memo", tc.name)
		}
		a, b := mustMine(t, p, tc.opt), mustMine(t, p, tc.opt)
		if a.Iterations < 2 {
			t.Fatalf("%s: %d iterations; need several replay rounds", tc.name, a.Iterations)
		}
		if got := a.Counters[metrics.CtrLCAComparisons]; got != builds*onePass {
			t.Errorf("%s: lca_comparisons = %d over %d rounds, want %d builds x %d", tc.name, got, a.Iterations, builds, onePass)
		}
		if !reflect.DeepEqual(a.Counters, b.Counters) {
			t.Errorf("%s: two runs count differently:\n%v\n%v", tc.name, a.Counters, b.Counters)
		}
		rounds := int64(a.Iterations)
		if got, want := a.Counters[metrics.CtrPairsEmitted], rounds*int64(lat.NumEdges()); got != want {
			t.Errorf("%s: pairs_emitted = %d, want %d rounds x %d edges = %d", tc.name, got, rounds, lat.NumEdges(), want)
		}
		if got, want := a.Counters[metrics.CtrCandidates], rounds*int64(lat.NumSlots()); got != want {
			t.Errorf("%s: candidates = %d, want %d rounds x %d slots = %d", tc.name, got, rounds, lat.NumSlots(), want)
		}
		if a.Candidates != int64(lat.NumSlots()) {
			t.Errorf("%s: Result.Candidates = %d, want %d", tc.name, a.Candidates, lat.NumSlots())
		}
		if ranCube(a) {
			t.Errorf("%s: replay shuffled %d records for %d candidates", tc.name, a.Counters[metrics.CtrShuffleRecords], a.Counters[metrics.CtrCandidates])
		}
		phases := []string{metrics.PhaseCandPruning, metrics.PhaseAncestorGen}
		if tc.opt.SampleSize > 0 {
			phases = append(phases, metrics.PhaseGainComputing) // the match-count division
		}
		for _, ph := range phases {
			if a.Phases[ph] <= 0 {
				t.Errorf("%s: phase %s = %v on replay rounds", tc.name, ph, a.Phases[ph])
			}
		}
	}
}

// TestLatticeSharedConcurrentBuildAndReplay races queries of mixed K,
// variants and priors — plus one with a sample of its own and one
// exhaustive — from a common start on a fresh session, so one of them builds
// each shared lattice while the others wait and then replay it. Each must
// answer exactly what it answers alone. The Concurrent name opts the test
// into the CI race run.
func TestLatticeSharedConcurrentBuildAndReplay(t *testing.T) {
	ds := datagen.Income(1200, 17)
	prior := []rule.Rule{rule.AllWildcards(ds.NumDims()), rule.AllWildcards(ds.NumDims())}
	prior[0][0], prior[1][3] = 1, 0
	queries := []Options{
		{Variant: Optimized, K: 2, SampleSize: 16, Seed: 9},
		{Variant: Optimized, K: 6, SampleSize: 16, Seed: 9},
		{Variant: Optimized, K: 4, SampleSize: 16, Seed: 9, PriorRules: prior},
		{Variant: RCT, K: 3, SampleSize: 16, Seed: 9},
		{Variant: MultiRule, K: 5, SampleSize: 16, Seed: 9, PruneRedundantAncestors: true},
		{Variant: Baseline, K: 2, SampleSize: 16, Seed: 9},
		{Variant: Optimized, K: 3, SampleSize: 16, Seed: 9, PriorRules: prior[:1]},
		{Variant: Optimized, K: 3, SampleSize: 12, Seed: 4}, // fresh sample: private lattice
		{Variant: Optimized, K: 2, SampleSize: 0, Seed: 9},  // the other shared space
		{Variant: Optimized, K: 3, SampleSize: 0, Seed: 9, PriorRules: prior},
	}
	cSerial, cShared := testCluster(), testCluster()
	defer cSerial.Close()
	defer cShared.Close()
	serial := mustPrepare(t, cSerial, ds, PrepOptions{SampleSize: 16, Seed: 9})
	want := make([]answer, len(queries))
	for i, opt := range queries {
		want[i] = answerOf(mustMine(t, serial, opt))
	}

	shared := mustPrepare(t, cShared, ds, PrepOptions{SampleSize: 16, Seed: 9})
	got := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, opt := range queries {
		wg.Add(1)
		go func(i int, opt Options) {
			defer wg.Done()
			<-start
			got[i], errs[i] = shared.Mine(opt)
		}(i, opt)
	}
	close(start)
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if a := answerOf(got[i]); !reflect.DeepEqual(want[i], a) {
			t.Errorf("query %d answers differently under concurrency:\n%+v\n%+v", i, want[i], a)
		}
	}
	for i := range shared.spaces {
		if shared.spaces[i].lat == nil {
			t.Errorf("shared space %d never built its lattice", i)
		}
	}
}

// TestLatticeBuildsOffThePrepare: Prepare builds nothing; the first query
// over a space does, inside its own phases.
func TestLatticeBuildsOffThePrepare(t *testing.T) {
	c := testCluster()
	defer c.Close()
	p := mustPrepare(t, c, datagen.Income(800, 2), PrepOptions{SampleSize: 8, Seed: 2})
	for i := range p.spaces {
		if sp := &p.spaces[i]; sp.memo != nil || sp.lat != nil {
			t.Fatalf("Prepare built space %d", i)
		}
	}
	first := mustMine(t, p, Options{K: 2, SampleSize: 8, Seed: 2})
	if p.spaces[spaceSample].lat == nil || p.spaces[spaceExhaustive].lat != nil {
		t.Fatal("a sampled query must build the sample space and only it")
	}
	if first.Phases[metrics.PhaseAncestorGen] <= time.Duration(0) {
		t.Error("the build is not charged to the building query")
	}
}
