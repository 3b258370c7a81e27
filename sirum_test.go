package sirum

import (
	"math"
	"strings"
	"testing"
)

func flights(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate("flights", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestReadCSVAndAccessors(t *testing.T) {
	csv := "id,color,size,price\n1,red,big,10\n2,blue,small,2\n3,red,small,4\n"
	ds, err := ReadCSV(strings.NewReader(csv), "price", "id")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 3 || ds.NumDims() != 2 {
		t.Fatalf("rows=%d dims=%d", ds.NumRows(), ds.NumDims())
	}
	if ds.MeasureName() != "price" || ds.DimNames()[0] != "color" {
		t.Errorf("schema: %v / %s", ds.DimNames(), ds.MeasureName())
	}
	if !strings.Contains(ds.Summary(), "3 rows") {
		t.Errorf("Summary = %q", ds.Summary())
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "color,size,price") {
		t.Errorf("csv round trip header: %q", sb.String())
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder([]string{"a", "b"}, "m")
	if err := b.Add([]string{"x", "y"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]string{"x"}, 1); err == nil {
		t.Error("wrong arity accepted")
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 1 {
		t.Errorf("rows = %d", ds.NumRows())
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestMineFlights pins the public API against the thesis' Table 1.2.
func TestMineFlights(t *testing.T) {
	ds := flights(t)
	res, err := ds.Mine(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != 3 {
		t.Fatalf("mined %d rules", len(res.Rules))
	}
	first := res.Rules[0]
	if first.String() != "Destination=London" {
		t.Errorf("first rule = %s", first)
	}
	if first.Count != 4 || math.Abs(first.Avg-15.25) > 1e-9 {
		t.Errorf("first rule aggregates: %+v", first)
	}
	if res.KL < 0 || res.InfoGain <= 0 {
		t.Errorf("KL=%v InfoGain=%v", res.KL, res.InfoGain)
	}
	if res.Iterations != 3 || res.WallTime <= 0 {
		t.Errorf("run stats: %+v", res)
	}
	if res.SimTime != 0 {
		t.Errorf("native backend reported sim time %v", res.SimTime)
	}
	// The simulated backend mines the same rules and reports a cluster clock.
	sim, err := ds.Mine(Options{K: 3, Backend: BackendSim})
	if err != nil {
		t.Fatal(err)
	}
	if sim.SimTime <= 0 {
		t.Errorf("sim backend reported sim time %v", sim.SimTime)
	}
	if len(sim.Rules) != len(res.Rules) {
		t.Fatalf("sim mined %d rules, native %d", len(sim.Rules), len(res.Rules))
	}
	for i := range sim.Rules {
		if sim.Rules[i].String() != res.Rules[i].String() {
			t.Errorf("rule %d: sim %s vs native %s", i, sim.Rules[i], res.Rules[i])
		}
	}
}

func TestMineVariants(t *testing.T) {
	ds, err := Generate("income", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Variant{VariantOptimized, VariantBaseline, VariantNaive, VariantRCT,
		VariantFastPruning, VariantFastAncestor, VariantMultiRule, ""}
	for _, v := range variants {
		res, err := ds.Mine(Options{K: 3, Variant: v, SampleSize: 16, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(res.Rules) == 0 {
			t.Errorf("%s mined nothing", v)
		}
	}
	if _, err := ds.Mine(Options{Variant: "bogus"}); err == nil {
		t.Error("bogus variant accepted")
	}
}

func TestMineOnSample(t *testing.T) {
	ds, err := Generate("income", 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Mine(Options{K: 3, SampleFraction: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.InfoGain <= 0 {
		t.Errorf("info gain on full data = %v", res.InfoGain)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{}
	if r.String() != "(*)" {
		t.Errorf("empty rule = %q", r.String())
	}
	r.Conditions = []Condition{{"Day", "Fri"}, {"Dest", "London"}}
	if got := r.String(); got != "Day=Fri ∧ Dest=London" {
		t.Errorf("rule string = %q", got)
	}
}

func TestExplore(t *testing.T) {
	ds := flights(t)
	res, err := ds.Explore(ExploreOptions{K: 2, GroupBys: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Prior) == 0 {
		t.Error("no prior rules")
	}
	if len(res.Result.Rules) == 0 {
		t.Error("no recommendations")
	}
	priorSet := map[string]bool{}
	for _, p := range res.Prior {
		priorSet[p.String()] = true
	}
	for _, r := range res.Result.Rules {
		if priorSet[r.String()] {
			t.Errorf("recommended known rule %s", r)
		}
	}
}

// TestFit pins the estimate columns of Table 1.1 through the public API.
func TestFit(t *testing.T) {
	ds := flights(t)
	// No extra rules: everything estimated at the overall average (m̂1).
	est, kl, err := ds.Fit(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range est {
		if math.Abs(v-145.0/14.0) > 0.2 {
			t.Errorf("baseline estimate %v", v)
		}
	}
	if kl < 0 {
		t.Errorf("kl = %v", kl)
	}
	// Adding (*,*,London) gives the m̂2 column: 15.25 / 8.4.
	est2, kl2, err := ds.Fit([][]Condition{{{Attr: "Destination", Value: "London"}}})
	if err != nil {
		t.Fatal(err)
	}
	if kl2 >= kl {
		t.Error("adding a rule must reduce KL")
	}
	if math.Abs(est2[0]-15.25) > 0.2 || math.Abs(est2[1]-8.4) > 0.2 {
		t.Errorf("m̂2 estimates: %v %v", est2[0], est2[1])
	}
	// Unknown attribute and value.
	if _, _, err := ds.Fit([][]Condition{{{Attr: "Nope", Value: "x"}}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, _, err := ds.Fit([][]Condition{{{Attr: "Day", Value: "Never"}}}); err == nil {
		t.Error("unknown value accepted")
	}
}

// TestFitRepeatsBitForBit: equal Fit calls scale along one path. The RCT
// scaler used to sum its coverage-table rows in Go map order, so the same
// rule list converged to several KL bit patterns — and Fit's scaler is the
// one behind every Append's KL and re-mine decision, which a journal replay
// must reproduce.
func TestFitRepeatsBitForBit(t *testing.T) {
	ds, err := Generate("income", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := ds.Mine(Options{K: 8, SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined.Rules) != 8 {
		t.Fatalf("mined %d rules, want 8", len(mined.Rules))
	}
	rules := make([][]Condition, len(mined.Rules))
	for i, r := range mined.Rules {
		rules[i] = r.Conditions
	}
	patterns := map[uint64]bool{}
	for i := 0; i < 12; i++ {
		_, kl, err := ds.Fit(rules)
		if err != nil {
			t.Fatal(err)
		}
		patterns[math.Float64bits(kl)] = true
	}
	if len(patterns) != 1 {
		t.Errorf("12 identical Fit calls returned %d distinct KL bit patterns", len(patterns))
	}
}
