package miner

import (
	"reflect"
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
)

// maintainOn prepares data on c, as a session's Append does, and maintains
// prev against it.
func maintainOn(t *testing.T, c engine.Backend, data *dataset.Dataset, prev Maintained, opt Options, factor float64) (Maintained, *IncrementalResult, error) {
	t.Helper()
	p, err := Prepare(c, data, PrepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drop()
	return Maintain(p, data, prev, opt, factor)
}

// grow concatenates a batch onto the accumulated data.
func grow(t *testing.T, data, batch *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	merged, err := data.Concat(batch)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

func TestIncrementalFirstBatchMines(t *testing.T) {
	c := testCluster()
	defer c.Close()
	state, res, err := maintainOn(t, c, datagen.Flights(), Maintained{}, Options{Variant: Optimized, K: 3, SampleSize: 0}, DefaultRemineFactor)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remined {
		t.Error("first batch must trigger a full mine")
	}
	if len(res.Rules) != 3 {
		t.Errorf("rules=%d", len(res.Rules))
	}
	if len(state.Rules) != 4 || state.Rules[0].NumWildcards() != len(state.Rules[0]) {
		t.Errorf("state holds %d rules, want the all-wildcards rule then 3", len(state.Rules))
	}
}

func TestIncrementalRefitOnSimilarBatch(t *testing.T) {
	c := testCluster()
	defer c.Close()
	opt := Options{Variant: Optimized, K: 3, SampleSize: 16, Seed: 3}
	base := datagen.Income(3000, 5)
	state, _, err := maintainOn(t, c, base, Maintained{}, opt, DefaultRemineFactor)
	if err != nil {
		t.Fatal(err)
	}
	// A batch from the same distribution should refit without re-mining.
	_, res, err := maintainOn(t, c, grow(t, base, datagen.Income(600, 99)), state, opt, DefaultRemineFactor)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remined {
		t.Error("same-distribution batch should not trigger a re-mine")
	}
	// Aggregates must reflect the merged data.
	for _, mr := range res.Rules {
		if mr.Count <= 0 {
			t.Errorf("rule %v count %d", mr.Rule, mr.Count)
		}
	}
}

func TestIncrementalReminesOnDrift(t *testing.T) {
	c := testCluster()
	defer c.Close()
	opt := Options{Variant: Optimized, K: 3, SampleSize: 16, Seed: 3}
	base := datagen.Income(2000, 5)
	state, _, err := maintainOn(t, c, base, Maintained{}, opt, 1.05) // eager
	if err != nil {
		t.Fatal(err)
	}
	// A drastically different batch (different planted structure via TLC's
	// schema won't concat; use income with a shifted seed and inverted
	// measure to force drift).
	drift := datagen.Income(4000, 77)
	for i := range drift.Measure {
		drift.Measure[i] = 1 - drift.Measure[i]
	}
	_, res, err := maintainOn(t, c, grow(t, base, drift), state, opt, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remined {
		t.Error("drifted batch should trigger a re-mine")
	}
}

func TestIncrementalMismatchedBatch(t *testing.T) {
	c := testCluster()
	defer c.Close()
	state, _, err := maintainOn(t, c, datagen.Flights(), Maintained{}, Options{Variant: Optimized, K: 2, SampleSize: 0}, DefaultRemineFactor)
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.NewBuilder(dataset.Schema{DimNames: []string{"x"}, MeasureName: "m"})
	if err := other.Add([]string{"v"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := maintainOn(t, c, other.MustBuild(), state, Options{K: 2}, DefaultRemineFactor); err == nil {
		t.Error("mismatched schema batch accepted")
	}
}

// TestIncrementalMaintainKeepsPrevOnFailure pins that a failed Maintain
// leaves the caller's state untouched, so dropping the result is all the
// rollback a caller needs.
func TestIncrementalMaintainKeepsPrevOnFailure(t *testing.T) {
	c := testCluster()
	defer c.Close()
	opt := Options{Variant: Optimized, K: 3, SampleSize: 16, Seed: 3}
	base := datagen.Income(1200, 5)
	prev, _, err := maintainOn(t, c, base, Maintained{}, opt, DefaultRemineFactor)
	if err != nil {
		t.Fatal(err)
	}
	want := Maintained{BaseRatio: prev.BaseRatio}
	for _, r := range prev.Rules {
		want.Rules = append(want.Rules, r.Clone())
	}

	// A near-zero factor forces the re-mine, and a SampleFraction the prep
	// was not built with fails it — after the refit already ran.
	bad := opt
	bad.SampleFraction = 0.5
	if _, _, err := maintainOn(t, c, grow(t, base, datagen.Income(300, 7)), prev, bad, 1e-9); err == nil {
		t.Fatal("re-mine with a mismatched SampleFraction should fail")
	}
	if !reflect.DeepEqual(prev, want) {
		t.Errorf("failed Maintain modified prev:\n got %v\nwant %v", prev, want)
	}
}
