package cube

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

func newTestCluster() *engine.SimBackend {
	return engine.NewSimBackend(engine.Config{Executors: 2, CoresPerExecutor: 2, Partitions: 4})
}

func TestSplitGroups(t *testing.T) {
	cases := []struct {
		d, g int
		want [][]int
	}{
		{3, 1, [][]int{{0, 1, 2}}},
		{3, 2, [][]int{{0, 1}, {2}}},
		{4, 2, [][]int{{0, 1}, {2, 3}}},
		{5, 3, [][]int{{0, 1}, {2, 3}, {4}}},
		{3, 99, [][]int{{0}, {1}, {2}}},
		{3, 0, [][]int{{0, 1, 2}}},
	}
	for _, c := range cases {
		got := SplitGroups(c.d, c.g)
		if len(got) != len(c.want) {
			t.Errorf("SplitGroups(%d,%d) = %v, want %v", c.d, c.g, got, c.want)
			continue
		}
		for i := range got {
			if len(got[i]) != len(c.want[i]) {
				t.Errorf("SplitGroups(%d,%d) = %v, want %v", c.d, c.g, got, c.want)
				break
			}
			for j := range got[i] {
				if got[i][j] != c.want[i][j] {
					t.Errorf("SplitGroups(%d,%d) = %v, want %v", c.d, c.g, got, c.want)
				}
			}
		}
	}
	if err := validateGroups(3, SplitGroups(3, 2)); err != nil {
		t.Error(err)
	}
}

func TestValidateGroups(t *testing.T) {
	if err := validateGroups(3, [][]int{{0, 1}}); err == nil {
		t.Error("incomplete cover accepted")
	}
	if err := validateGroups(3, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping groups accepted")
	}
	if err := validateGroups(3, [][]int{{0, 1}, {2, 5}}); err == nil {
		t.Error("out-of-range position accepted")
	}
}

// tupleInstances converts every dataset row into a full-constant rule
// instance, the input of exhaustive cube exploration.
func tupleInstances(parts int) []map[string]Agg {
	ds := datagen.Flights()
	out := make([]map[string]Agg, parts)
	for i := range out {
		out[i] = make(map[string]Agg)
	}
	buf := make([]int32, ds.NumDims())
	for i := 0; i < ds.NumRows(); i++ {
		row, m := ds.Row(i, buf)
		k := rule.FromTuple(row).Key()
		p := i % parts
		out[p][k] = Merge(out[p][k], Agg{SumM: m, SumMhat: 1, Count: 1})
	}
	return out
}

// TestExhaustiveCubeAggregates checks the cube against directly computed
// support sums for every candidate over the flight data.
func TestExhaustiveCubeAggregates(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	ds := datagen.Flights()
	in := engine.NewPColl(tupleInstances(3))
	res, err := ComputeSingleStage(c, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	candidates := engine.CollectMap(c, res, "gather", Merge, stringRecordBytes)

	// The thesis' example quotes "73 possible rules"; the union of the 14
	// tuples' cube lattices has 74 elements (1 at level 0, 20 at level 1,
	// 39 at level 2, 14 at level 3) — the thesis evidently excludes the
	// always-selected all-wildcards rule.
	if len(candidates) != 74 {
		t.Errorf("candidate count = %d, want 74", len(candidates))
	}
	for key, agg := range candidates {
		r, err := rule.FromKey(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantCount := r.SupportSums(ds)
		if math.Abs(agg.SumM-wantSum) > 1e-9 || math.Abs(agg.Count-float64(wantCount)) > 1e-9 {
			t.Errorf("rule %s: agg = %+v, want sum %v count %d", r.Format(ds.Dicts), agg, wantSum, wantCount)
		}
	}
	// Spot checks from Table 1.2.
	london, _ := rule.Parse([]string{"*", "*", "London"}, ds)
	if got := candidates[london.Key()]; got.Count != 4 || got.SumM != 61 {
		t.Errorf("(*,*,London) agg = %+v", got)
	}
	all := rule.AllWildcards(3)
	if got := candidates[all.Key()]; got.Count != 14 || got.SumM != 145 {
		t.Errorf("(*,*,*) agg = %+v", got)
	}
}

// TestMultiStageEqualsSingleStage is Theorem 1 (Appendix A): column-grouped
// computation yields exactly the same candidate set with the same
// aggregates.
func TestMultiStageEqualsSingleStage(t *testing.T) {
	for _, g := range []int{1, 2, 3} {
		c1, c2 := newTestCluster(), newTestCluster()
		in1 := engine.NewPColl(tupleInstances(3))
		in2 := engine.NewPColl(tupleInstances(3))
		single, err := ComputeSingleStage(c1, in1, 3)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := Compute(c2, in2, 3, SplitGroups(3, g))
		if err != nil {
			t.Fatal(err)
		}
		a := engine.CollectMap(c1, single, "a", Merge, stringRecordBytes)
		b := engine.CollectMap(c2, multi, "b", Merge, stringRecordBytes)
		if len(a) != len(b) {
			t.Fatalf("g=%d: %d vs %d candidates", g, len(a), len(b))
		}
		for k, va := range a {
			vb, ok := b[k]
			if !ok {
				t.Fatalf("g=%d: candidate missing from multi-stage output", g)
			}
			if math.Abs(va.SumM-vb.SumM) > 1e-9 || math.Abs(va.SumMhat-vb.SumMhat) > 1e-9 || math.Abs(va.Count-vb.Count) > 1e-9 {
				t.Errorf("g=%d key mismatch: %+v vs %+v", g, va, vb)
			}
		}
		c1.Close()
		c2.Close()
	}
}

// TestColumnGroupingEmitsFewerPairs pins the point of Section 4.3: with
// shared ancestors, the multi-stage pipeline emits fewer mapper pairs than
// the single-stage cube.
func TestColumnGroupingEmitsFewerPairs(t *testing.T) {
	c1, c2 := newTestCluster(), newTestCluster()
	defer c1.Close()
	defer c2.Close()
	if _, err := ComputeSingleStage(c1, engine.NewPColl(tupleInstances(3)), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(c2, engine.NewPColl(tupleInstances(3)), 3, SplitGroups(3, 3)); err != nil {
		t.Fatal(err)
	}
	single := c1.Reg().Counter(metrics.CtrPairsEmitted)
	multi := c2.Reg().Counter(metrics.CtrPairsEmitted)
	if single <= 0 || multi <= 0 {
		t.Fatalf("pair counters not recorded: %d %d", single, multi)
	}
	if multi >= single {
		t.Errorf("multi-stage emitted %d pairs, single-stage %d — expected a reduction", multi, single)
	}
}

// TestSampleCandidateExample pins the worked example of Section 3.1.1: with
// sample {t4, t9}, the LCAs plus their ancestors form exactly the 15 listed
// candidate rules.
func TestSampleCandidateExample(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	ds := datagen.Flights()
	sampleRows := []int{3, 8} // t4=(Sun,Chicago,London), t9=(Thu,SF,Frankfurt)
	in := make([]map[string]Agg, 2)
	for i := range in {
		in[i] = make(map[string]Agg)
	}
	sbuf, tbuf := make([]int32, 3), make([]int32, 3)
	lca := make(rule.Rule, 3)
	for _, si := range sampleRows {
		srow, _ := ds.Row(si, sbuf)
		for ti := 0; ti < ds.NumRows(); ti++ {
			trow, m := ds.Row(ti, tbuf)
			lca = rule.LCA(srow, trow, lca)
			k := lca.Key()
			p := ti % 2
			in[p][k] = Merge(in[p][k], Agg{SumM: m, SumMhat: 1, Count: 1})
		}
	}
	res, err := Compute(c, engine.NewPColl(in), 3, SplitGroups(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	candidates := engine.CollectMap(c, res, "gather", Merge, stringRecordBytes)
	want := map[string]bool{}
	for _, vals := range [][]string{
		{"*", "*", "*"}, {"*", "*", "London"}, {"*", "*", "Frankfurt"},
		{"*", "Chicago", "*"}, {"*", "SF", "*"}, {"Sun", "*", "*"}, {"Thu", "*", "*"},
		{"Sun", "Chicago", "*"}, {"Sun", "*", "London"}, {"*", "Chicago", "London"},
		{"Thu", "SF", "*"}, {"Thu", "*", "Frankfurt"}, {"*", "SF", "Frankfurt"},
		{"Sun", "Chicago", "London"}, {"Thu", "SF", "Frankfurt"},
	} {
		r, err := rule.Parse(vals, ds)
		if err != nil {
			t.Fatal(err)
		}
		want[r.Key()] = true
	}
	if len(candidates) != 15 {
		t.Errorf("candidate count = %d, want 15", len(candidates))
	}
	for k := range want {
		if _, ok := candidates[k]; !ok {
			r, _ := rule.FromKey(k, 3)
			t.Errorf("missing candidate %s", r.Format(ds.Dicts))
		}
	}
	for k := range candidates {
		if !want[k] {
			r, _ := rule.FromKey(k, 3)
			t.Errorf("unexpected candidate %s", r.Format(ds.Dicts))
		}
	}
}

// TestQuickMultiStageEquivalence fuzzes Theorem 1 over random instance sets,
// arities and groupings.
func TestQuickMultiStageEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := r.Intn(4) + 2
		g := r.Intn(d) + 1
		nInst := r.Intn(20) + 1
		in1 := []map[string]Agg{make(map[string]Agg), make(map[string]Agg)}
		in2 := []map[string]Agg{make(map[string]Agg), make(map[string]Agg)}
		for i := 0; i < nInst; i++ {
			ru := make(rule.Rule, d)
			for j := range ru {
				if r.Intn(4) == 0 {
					ru[j] = rule.Wildcard
				} else {
					ru[j] = int32(r.Intn(3))
				}
			}
			agg := Agg{SumM: float64(r.Intn(100)), SumMhat: float64(r.Intn(100)), Count: 1}
			k := ru.Key()
			p := i % 2
			in1[p][k] = Merge(in1[p][k], agg)
			in2[p][k] = Merge(in2[p][k], agg)
		}
		c1, c2 := newTestCluster(), newTestCluster()
		defer c1.Close()
		defer c2.Close()
		single, err := ComputeSingleStage(c1, engine.NewPColl(in1), d)
		if err != nil {
			return false
		}
		multi, err := Compute(c2, engine.NewPColl(in2), d, SplitGroups(d, g))
		if err != nil {
			return false
		}
		a := engine.CollectMap(c1, single, "a", Merge, stringRecordBytes)
		b := engine.CollectMap(c2, multi, "b", Merge, stringRecordBytes)
		if len(a) != len(b) {
			return false
		}
		for k, va := range a {
			vb, ok := b[k]
			if !ok || math.Abs(va.SumM-vb.SumM) > 1e-6 || math.Abs(va.Count-vb.Count) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComputeRejectsBadGroups(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	_, err := Compute(c, engine.NewPColl(tupleInstances(1)), 3, [][]int{{0}})
	if err == nil {
		t.Error("bad groups accepted")
	}
}

func TestCountCandidates(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	res, err := ComputeSingleStage(c, engine.NewPColl(tupleInstances(2)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountCandidates(c, res); got != 74 {
		t.Errorf("CountCandidates = %d, want 74", got)
	}
}
