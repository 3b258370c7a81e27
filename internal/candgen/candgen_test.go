package candgen

import (
	"math"
	"testing"
	"testing/quick"

	"sirum/internal/cube"
	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/metrics"
	"sirum/internal/rule"
	"sirum/internal/stats"
)

func newTestCluster() *engine.SimBackend {
	return engine.NewSimBackend(engine.Config{Executors: 2, CoresPerExecutor: 2, Partitions: 4})
}

// gather merges a keyed collection's partitions into one map on the driver.
func gather(in *engine.PColl[map[string]cube.Agg]) map[string]cube.Agg {
	total := make(map[string]cube.Agg)
	for _, part := range in.Parts() {
		for k, v := range part {
			if old, ok := total[k]; ok {
				v = cube.Merge(old, v)
			}
			total[k] = v
		}
	}
	return total
}

// flightData caches the flight dataset in an engine and returns the handles.
func flightData(t *testing.T, c engine.Backend) (*dataset.Dataset, *engine.CachedData, []float64) {
	t.Helper()
	ds := datagen.Flights()
	_, work := maxent.NewTransform(ds.Measure)
	mhat := make([]float64, len(work))
	avg := ds.MeanMeasure()
	for i := range mhat {
		mhat[i] = avg // estimates after the all-wildcards rule
	}
	blocks := engine.BlocksFromColumns(ds.Dims, work, mhat, 3)
	cd, err := engine.CacheTuples(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cd, work
}

func TestDrawSample(t *testing.T) {
	ds := datagen.Flights()
	s := DrawSample(ds, stats.NewRand(1), 4)
	if s.Size() != 4 || s.D != 3 {
		t.Fatalf("sample size=%d d=%d", s.Size(), s.D)
	}
	if s.Bytes() != 4*3*4 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	big := DrawSample(ds, stats.NewRand(1), 100)
	if big.Size() != 14 {
		t.Errorf("oversized sample = %d", big.Size())
	}
}

func TestMatchCount(t *testing.T) {
	ds := datagen.Flights()
	s := &Sample{D: 3, Domains: ds.DomainSizes()}
	r0, _ := ds.Row(3, nil) // (Sun, Chicago, London)
	r1, _ := ds.Row(8, nil) // (Thu, SF, Frankfurt)
	s.Rows = [][]int32{r0, r1}
	all := rule.AllWildcards(3)
	if s.MatchCount(all) != 2 {
		t.Error("all-wildcards should match both")
	}
	london, _ := rule.Parse([]string{"*", "*", "London"}, ds)
	if s.MatchCount(london) != 1 {
		t.Error("(*,*,London) should match one sample tuple")
	}
	sf, _ := rule.Parse([]string{"Fri", "London", "LA"}, ds)
	if s.MatchCount(sf) != 0 {
		t.Error("unrelated rule should match none")
	}
}

func TestBuildIndex(t *testing.T) {
	ds := datagen.Flights()
	s := DrawSample(ds, stats.NewRand(7), 5)
	ix := BuildIndex(s)
	// Every sample row must be findable through each of its attributes.
	for si, row := range s.Rows {
		for j, v := range row {
			found := false
			for _, p := range ix.Posting(j, v) {
				if int(p) == si {
					found = true
				}
			}
			if !found {
				t.Fatalf("sample row %d not in posting for attr %d value %d", si, j, v)
			}
		}
	}
	if ix.Posting(0, -5) != nil || ix.Posting(0, 1<<20) != nil {
		t.Error("out-of-range postings should be nil")
	}
	if ix.Bytes() <= 0 {
		t.Error("index bytes not estimated")
	}
}

// TestIndexedEqualsNaive is the equivalence property of Section 4.2: both
// LCA strategies produce identical aggregates.
func TestIndexedEqualsNaive(t *testing.T) {
	c1, c2 := newTestCluster(), newTestCluster()
	defer c1.Close()
	defer c2.Close()
	ds, cd1, _ := flightData(t, c1)
	_, cd2, _ := flightData(t, c2)
	s := DrawSample(ds, stats.NewRand(3), 4)

	naive, err := LCAParts(c1, cd1, s, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := LCAParts(c2, cd2, s, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := gather(naive)
	b := gather(indexed)
	if len(a) != len(b) {
		t.Fatalf("LCA sets differ in size: %d vs %d", len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Fatalf("indexed output missing LCA")
		}
		if math.Abs(va.SumM-vb.SumM) > 1e-9 || math.Abs(va.Count-vb.Count) > 1e-9 {
			t.Errorf("LCA aggregate mismatch: %+v vs %+v", va, vb)
		}
	}
	// The indexed path must record fewer operations than naive comparisons
	// on data whose values mostly differ from the sample's.
	nOps := c1.Reg().Counter(metrics.CtrLCAComparisons)
	iOps := c2.Reg().Counter(metrics.CtrLCAComparisons)
	if nOps == 0 || iOps == 0 {
		t.Fatal("comparison counters not recorded")
	}
	if iOps >= nOps {
		t.Errorf("indexed ops (%d) not fewer than naive comparisons (%d)", iOps, nOps)
	}
}

func TestLCAPartsEmptySample(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	_, cd, _ := flightData(t, c)
	if _, err := LCAParts(c, cd, &Sample{D: 3}, false, nil); err == nil {
		t.Error("empty sample accepted")
	}
}

// TestSamplePipelineMatchesDirectSums is the end-to-end correctness property
// of sample-based pruning: after the cube and the fix-up, every candidate's
// aggregates equal its true support sums over D.
func TestSamplePipelineMatchesDirectSums(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	ds, cd, work := flightData(t, c)
	s := DrawSample(ds, stats.NewRand(11), 3)
	lcas, err := LCAParts(c, cd, s, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := cube.Compute(c, lcas, 3, cube.SplitGroups(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	adjusted, err := AdjustForSample(c, cands, s, NewStringCodec(3))
	if err != nil {
		t.Fatal(err)
	}
	all := gather(adjusted)
	if len(all) == 0 {
		t.Fatal("no candidates")
	}
	for key, agg := range all {
		r, err := rule.FromKey(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		var wantM float64
		wantCount := 0
		for i := 0; i < ds.NumRows(); i++ {
			if r.MatchesRow(ds, i) {
				wantM += work[i]
				wantCount++
			}
		}
		if math.Abs(agg.SumM-wantM) > 1e-9 {
			t.Errorf("rule %s SumM = %v, want %v", r.Format(ds.Dicts), agg.SumM, wantM)
		}
		if math.Abs(agg.Count-float64(wantCount)) > 1e-9 {
			t.Errorf("rule %s Count = %v, want %d", r.Format(ds.Dicts), agg.Count, wantCount)
		}
	}
}

// TestQuickSamplePipeline fuzzes the same property over random samples.
func TestQuickSamplePipeline(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		sz := int(szRaw)%6 + 1
		c := newTestCluster()
		defer c.Close()
		ds := datagen.Flights()
		_, work := maxent.NewTransform(ds.Measure)
		mhat := make([]float64, len(work))
		for i := range mhat {
			mhat[i] = 1
		}
		blocks := engine.BlocksFromColumns(ds.Dims, work, mhat, 2)
		cd, err := engine.CacheTuples(c, blocks)
		if err != nil {
			return false
		}
		s := DrawSample(ds, stats.NewRand(seed), sz)
		lcas, err := LCAParts(c, cd, s, seed%2 == 0, nil)
		if err != nil {
			return false
		}
		cands, err := cube.ComputeSingleStage(c, lcas, 3)
		if err != nil {
			return false
		}
		adjusted, err := AdjustForSample(c, cands, s, NewStringCodec(3))
		if err != nil {
			return false
		}
		all := gather(adjusted)
		for key, agg := range all {
			r, _ := rule.FromKey(key, 3)
			var wantM float64
			wantCount := 0
			for i := 0; i < ds.NumRows(); i++ {
				if r.MatchesRow(ds, i) {
					wantM += work[i]
					wantCount++
				}
			}
			if math.Abs(agg.SumM-wantM) > 1e-9 || math.Abs(agg.Count-float64(wantCount)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveParts(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	ds, cd, work := flightData(t, c)
	parts, err := ExhaustiveParts(c, cd)
	if err != nil {
		t.Fatal(err)
	}
	all := gather(parts)
	// 14 tuples, two pairs of duplicates? Check: distinct dim combinations.
	distinct := map[string]bool{}
	var totalM float64
	buf := make([]int32, 3)
	for i := 0; i < ds.NumRows(); i++ {
		row, _ := ds.Row(i, buf)
		distinct[rule.FromTuple(row).Key()] = true
		totalM += work[i]
	}
	if len(all) != len(distinct) {
		t.Errorf("instance count = %d, want %d", len(all), len(distinct))
	}
	var gotM float64
	for _, agg := range all {
		gotM += agg.SumM
	}
	if math.Abs(gotM-totalM) > 1e-9 {
		t.Errorf("total SumM = %v, want %v", gotM, totalM)
	}
}

func TestTopByGain(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	ds, cd, _ := flightData(t, c)
	parts, err := ExhaustiveParts(c, cd)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := cube.ComputeSingleStage(c, parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	top := TopByGain(c, cands, 5, nil)
	if len(top) != 5 {
		t.Fatalf("top = %d candidates", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Gain > top[i-1].Gain {
			t.Error("top candidates not sorted by gain")
		}
	}
	// The known best rule after r1 is (*, *, London) — mhat was seeded with
	// the overall average in flightData.
	best, _ := rule.FromKey(top[0].Key, 3)
	if got := best.Format(ds.Dicts); got != "(*, *, London)" {
		t.Errorf("best rule = %s", got)
	}
	// Excluding it promotes the runner-up.
	top2 := TopByGain(c, cands, 1, map[string]bool{top[0].Key: true})
	if len(top2) != 1 || top2[0].Key == top[0].Key {
		t.Error("exclusion did not remove the top rule")
	}
	if TopByGain(c, cands, 0, nil) != nil {
		t.Error("n=0 should return nil")
	}
}
