package explore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

func testCluster() *engine.SimBackend {
	return engine.NewSimBackend(engine.Config{Executors: 2, CoresPerExecutor: 2, Partitions: 4})
}

func TestPriorKnowledge(t *testing.T) {
	ds := datagen.Flights()
	// Lowest-cardinality attribute is Origin (6 values); Day and
	// Destination have 7. With n=2 the prior covers Origin and Day.
	prior := PriorKnowledge(ds, 2)
	if len(prior) != 6+7 {
		t.Fatalf("prior rules = %d, want 13", len(prior))
	}
	for _, r := range prior {
		if r.Level() != 1 {
			t.Errorf("prior rule %v is not a single-attribute cell", r)
		}
		if r.SupportSize(ds) == 0 {
			t.Errorf("prior rule %v has empty support", r)
		}
	}
	if got := PriorKnowledge(ds, 99); len(got) == 0 {
		t.Error("oversized n should clamp, not fail")
	}
}

// reingested rebuilds ds from its rows in a shuffled order, which hands out
// every dictionary code anew.
func reingested(ds *dataset.Dataset, seed int64) *dataset.Dataset {
	b := dataset.NewBuilder(ds.Schema)
	row := make([]string, ds.NumDims())
	for _, i := range rand.New(rand.NewSource(seed)).Perm(ds.NumRows()) {
		for j := range row {
			row[j] = ds.DimValue(i, j)
		}
		if err := b.Add(row, ds.Measure[i]); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

// TestRowOrderDoesNotMoveTheRun: the prior is listed by value, not by
// dictionary code, so the same rows ingested in another order are fitted
// along the same path — equal scaling loops (what a run under a large prior
// costs) and KL equal to summation order (1e-12; by code it moves at 1e-6). Listed by code, the loop counts of the shuffles
// below differ by up to a quarter.
func TestRowOrderDoesNotMoveTheRun(t *testing.T) {
	base := datagen.Income(1500, 3)
	run := func(ds *dataset.Dataset) ([]string, int64, float64) {
		c := engine.NewNativeBackend(engine.Config{})
		defer c.Close()
		rec, err := Run(c, ds, Options{K: 3, GroupBys: 9, Optimized: true, MultiRule: true})
		if err != nil {
			t.Fatal(err)
		}
		prior := make([]string, len(rec.PriorRules))
		for i, r := range rec.PriorRules {
			prior[i] = r.Format(ds.Dicts)
		}
		return prior, rec.Result.Counters[metrics.CtrScalingLoops], rec.Result.KL
	}
	wantPrior, wantLoops, wantKL := run(base)
	for seed := int64(1); seed <= 3; seed++ {
		prior, loops, kl := run(reingested(base, seed))
		if !slices.Equal(prior, wantPrior) {
			t.Fatalf("shuffle %d: prior listed in another order:\n%v\nwant\n%v", seed, prior, wantPrior)
		}
		if loops != wantLoops || math.Abs(kl-wantKL) > 1e-12*wantKL {
			t.Errorf("shuffle %d: %d scaling loops, KL %v; the original order took %d, KL %v", seed, loops, kl, wantLoops, wantKL)
		}
	}
}

func TestRunRecommendsBeyondPrior(t *testing.T) {
	ds := datagen.GDELT(1500, 7)
	c := testCluster()
	defer c.Close()
	rec, err := Run(c, ds, Options{K: 3, GroupBys: 2, Optimized: true, MultiRule: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Result.Rules) == 0 {
		t.Fatal("no recommendations")
	}
	priorKeys := map[string]bool{}
	for _, r := range rec.PriorRules {
		priorKeys[r.Key()] = true
	}
	for _, mr := range rec.Result.Rules {
		if priorKeys[mr.Rule.Key()] {
			t.Errorf("recommended a rule the analyst already saw: %v", mr.Rule)
		}
		if mr.Rule.Equal(rule.AllWildcards(ds.NumDims())) {
			t.Error("recommended the all-wildcards rule")
		}
	}
	if rec.Result.InfoGain <= 0 {
		t.Errorf("info gain = %v", rec.Result.InfoGain)
	}
}

// TestOptimizedBeatsPriorWorkStyle reproduces the shape of Figure 5.15: the
// optimized run spends fewer scaling loops than the reset-style baseline,
// while reaching a comparable fit.
func TestOptimizedBeatsPriorWorkStyle(t *testing.T) {
	ds := datagen.GDELT(1200, 9)
	run := func(optimized bool) (*Recommendation, map[string]int64) {
		c := testCluster()
		defer c.Close()
		rec, err := Run(c, ds, Options{K: 3, GroupBys: 2, Optimized: optimized, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Counters are scoped per query now; the run's own snapshot is the
		// authoritative source (the backend registry keeps substrate-level
		// totals only).
		return rec, rec.Result.Counters
	}
	_, baseCtr := run(false)
	_, optCtr := run(true)
	if optCtr[metrics.CtrScalingLoops] >= baseCtr[metrics.CtrScalingLoops] {
		t.Errorf("optimized loops %d not fewer than reset-style %d",
			optCtr[metrics.CtrScalingLoops], baseCtr[metrics.CtrScalingLoops])
	}
}

func TestRunDefaults(t *testing.T) {
	ds := datagen.Flights()
	c := testCluster()
	defer c.Close()
	rec, err := Run(c, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.PriorRules) == 0 {
		t.Error("defaults produced no prior rules")
	}
}
