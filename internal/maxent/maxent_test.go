package maxent

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/rule"
)

var (
	_ Scaler = (*NaiveScaler)(nil)
	_ Scaler = (*RCTScaler)(nil)
)

func mustRule(t *testing.T, ds *dataset.Dataset, vals ...string) rule.Rule {
	t.Helper()
	r, err := rule.Parse(vals, ds)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func approx(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestTransformIdentityForValidMeasure(t *testing.T) {
	m := []float64{1, 2, 3}
	tr, work := NewTransform(m)
	if tr.Shift != 0 || tr.Add != 0 || tr.Total != 6 {
		t.Errorf("transform = %+v", tr)
	}
	for i := range m {
		if work[i] != m[i] {
			t.Errorf("work[%d] = %v", i, work[i])
		}
	}
	// Input untouched.
	work[0] = 99
	if m[0] != 1 {
		t.Error("NewTransform modified its input")
	}
}

func TestTransformNegativeValues(t *testing.T) {
	m := []float64{-5, 0, 5}
	tr, work := NewTransform(m)
	if tr.Shift != 5 {
		t.Errorf("Shift = %v, want 5", tr.Shift)
	}
	if work[0] != 0 || work[2] != 10 {
		t.Errorf("work = %v", work)
	}
	if err := Validate(work); err != nil {
		t.Error(err)
	}
	approx(t, "Invert(Apply(x))", tr.Invert(tr.Apply(3.5)), 3.5, 1e-12)
}

func TestTransformZeroSum(t *testing.T) {
	m := []float64{0, 0, 0, 0}
	tr, work := NewTransform(m)
	if tr.Add != 0.25 {
		t.Errorf("Add = %v, want 1/4", tr.Add)
	}
	if tr.Total != 1 {
		t.Errorf("Total = %v, want 1", tr.Total)
	}
	if err := Validate(work); err != nil {
		t.Error(err)
	}
}

func TestTransformNegativeThatSumsToZero(t *testing.T) {
	m := []float64{-2, -2}
	_, work := NewTransform(m)
	if err := Validate(work); err != nil {
		t.Errorf("shift+add combination invalid: %v (work=%v)", err, work)
	}
}

func TestTransformEmpty(t *testing.T) {
	tr, work := NewTransform(nil)
	if len(work) != 0 || tr.Shift != 0 || tr.Add != 0 {
		t.Errorf("empty transform %+v %v", tr, work)
	}
}

func TestValidateRejectsBadColumns(t *testing.T) {
	if err := Validate([]float64{1, -1, 3}); err == nil {
		t.Error("negative value accepted")
	}
	if err := Validate([]float64{0, 0}); err == nil {
		t.Error("zero-sum column accepted")
	}
	if err := Validate(nil); err != nil {
		t.Error("empty column rejected")
	}
}

func TestGainBasics(t *testing.T) {
	if Gain(0, 5) != 0 || Gain(5, 0) != 0 || Gain(-1, 2) != 0 {
		t.Error("degenerate gains not zero")
	}
	if Gain(10, 10) != 0 {
		t.Error("satisfied constraint gain not zero")
	}
	if Gain(10, 5) <= 0 {
		t.Error("underestimated rule must have positive gain")
	}
	if Gain(5, 10) >= 0 {
		t.Error("overestimated rule must have negative gain")
	}
	approx(t, "Gain(10,5)", Gain(10, 5), 10*math.Log(2), 1e-12)
}

// TestGainPaperExample pins Section 2.4's claim: after r1, the rule with the
// highest gain over the flight data is (*, *, London).
func TestGainPaperExample(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	avg := ds.MeanMeasure()
	mhat := make([]float64, ds.NumRows())
	for i := range mhat {
		mhat[i] = avg
	}
	best := ""
	bestGain := math.Inf(-1)
	seen := map[string]bool{}
	buf := make([]int32, 3)
	for i := 0; i < ds.NumRows(); i++ {
		row, _ := ds.Row(i, buf)
		rule.FromTuple(row).ForEachGeneralization(rule.AllPositions(3), true, func(a rule.Rule) {
			k := a.Key()
			if seen[k] {
				return
			}
			seen[k] = true
			g := GainOf(a, ds, work, mhat)
			if g > bestGain {
				bestGain = g
				best = a.Format(ds.Dicts)
			}
		})
	}
	if best != "(*, *, London)" {
		t.Errorf("best rule after r1 = %s (gain %v), want (*, *, London)", best, bestGain)
	}
}

// TestGainOfSelectedRuleIsZero pins the observation of Section 2.4: once a
// rule is added, its constraint holds and its gain is 0.
func TestGainOfSelectedRuleIsZero(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewNaiveScaler(ds, work)
	s.Epsilon = 1e-10
	r2 := mustRule(t, ds, "*", "*", "London")
	for _, r := range []rule.Rule{rule.AllWildcards(3), r2} {
		if _, err := s.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if g := GainOf(r2, ds, work, s.Mhat()); math.Abs(g) > 1e-6 {
		t.Errorf("gain of selected rule = %v, want ~0", g)
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	p := []float64{1, 2, 3, 4}
	if got := KLDivergence(p, p); got != 0 {
		t.Errorf("self KL = %v", got)
	}
	q := []float64{4, 3, 2, 1}
	if KLDivergence(p, q) <= 0 {
		t.Error("KL of distinct distributions not positive")
	}
	// Scale invariance of the normalized form.
	q2 := []float64{8, 6, 4, 2}
	approx(t, "scale invariance", KLDivergence(p, q), KLDivergence(p, q2), 1e-12)
	if !math.IsInf(KLDivergence([]float64{1, 1}, []float64{1, 0}), 1) {
		t.Error("absolute continuity violation must be +Inf")
	}
	if KLDivergence([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Error("degenerate zero-mass P")
	}
}

// TestKLFlightGolden pins the KL trajectory of the running example. The
// thesis quotes 4.1e-3 and 1.4e-3; those constants do not reproduce under
// any standard log base, but the substantive claim — adding (*, *, London)
// reduces the divergence — does, and these nat-scale values are pinned as
// this implementation's goldens (see EXPERIMENTS.md).
func TestKLFlightGolden(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	avg := ds.MeanMeasure()
	mhat1 := make([]float64, 14)
	for i := range mhat1 {
		mhat1[i] = avg
	}
	kl1 := KLDivergence(work, mhat1)
	approx(t, "KL(m||mhat1)", kl1, 0.146043, 1e-5)

	mhat2 := make([]float64, 14)
	for i := range mhat2 {
		mhat2[i] = 8.4
	}
	for _, i := range []int{0, 3, 5, 10} {
		mhat2[i] = 15.25
	}
	kl2 := KLDivergence(work, mhat2)
	approx(t, "KL(m||mhat2)", kl2, 0.104610, 1e-5)
	if kl2 >= kl1 {
		t.Error("adding rule 2 must reduce KL divergence")
	}
}

func TestInformationGain(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	avg := ds.MeanMeasure()
	base := make([]float64, 14)
	for i := range base {
		base[i] = avg
	}
	if got := InformationGain(work, base); math.Abs(got) > 1e-12 {
		t.Errorf("info gain of baseline estimates = %v, want 0", got)
	}
	mhat2 := make([]float64, 14)
	for i := range mhat2 {
		mhat2[i] = 8.4
	}
	for _, i := range []int{0, 3, 5, 10} {
		mhat2[i] = 15.25
	}
	got := InformationGain(work, mhat2)
	approx(t, "info gain after r2", got, 0.146043-0.104610, 1e-5)
	if InformationGain(nil, nil) != 0 {
		t.Error("empty info gain")
	}
}

// runScaler adds the flight example's first two rules with a tight epsilon
// and returns the scaler for inspection.
func addFlightRules(t *testing.T, s Scaler, ds *dataset.Dataset, rules ...rule.Rule) {
	t.Helper()
	for _, r := range rules {
		if st, err := s.AddRule(r); err != nil || !st.Converged {
			t.Fatalf("AddRule(%v): %v (stats %+v)", r, err, st)
		}
	}
}

// TestNaiveScalerFlightExample pins the m̂1 and m̂2 columns of Table 1.1: all
// estimates are 10.36 after r1; after r2 the London-bound flights get 15.25
// and the rest 8.4. It also checks the λ values the thesis settles on
// (λ1 = 8.4, λ2 = 1.8 at its rounding).
func TestNaiveScalerFlightExample(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewNaiveScaler(ds, work)
	s.Epsilon = 1e-10

	addFlightRules(t, s, ds, rule.AllWildcards(3))
	for i, v := range s.Mhat() {
		approx(t, "mhat1", v, 145.0/14.0, 1e-6)
		_ = i
	}

	addFlightRules(t, s, ds, mustRule(t, ds, "*", "*", "London"))
	covered := map[int]bool{0: true, 3: true, 5: true, 10: true}
	for i, v := range s.Mhat() {
		want := 8.4
		if covered[i] {
			want = 15.25
		}
		approx(t, "mhat2", v, want, 1e-6)
	}
	approx(t, "lambda1", s.Lambdas()[0], 8.4, 1e-6)
	approx(t, "lambda2", s.Lambdas()[1], 15.25/8.4, 1e-6)
}

// TestNaiveScalerThirdRule pins the m̂3 column of Table 1.1 (values 22.4,
// 13.6, 12.9, 7.8 at the thesis' rounding).
func TestNaiveScalerThirdRule(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewNaiveScaler(ds, work)
	s.Epsilon = 1e-10
	addFlightRules(t, s, ds,
		rule.AllWildcards(3),
		mustRule(t, ds, "*", "*", "London"),
		mustRule(t, ds, "Fri", "*", "*"))
	want := map[int]float64{0: 22.4, 1: 13.6, 3: 12.9, 5: 12.9, 10: 12.9}
	for i, v := range s.Mhat() {
		w, ok := want[i]
		if !ok {
			w = 7.8
		}
		approx(t, "mhat3", v, w, 0.06)
	}
	// The constraints themselves must hold tightly.
	for ri, r := range s.Rules() {
		var sum float64
		n := 0
		for i := 0; i < ds.NumRows(); i++ {
			if r.MatchesRow(ds, i) {
				sum += s.Mhat()[i]
				n++
			}
		}
		approx(t, "constraint "+r.String(), sum/float64(n), s.Targets()[ri], 1e-6)
	}
}

func TestNaiveScalerRejectsEmptySupport(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewNaiveScaler(ds, work)
	bad := rule.Rule{0, 0, 1} // (Fri, SF, LA): no such flight
	if bad.SupportSize(ds) != 0 {
		t.Fatal("fixture changed: rule should have empty support")
	}
	if _, err := s.AddRule(bad); err == nil {
		t.Error("empty-support rule accepted")
	}
	if len(s.Rules()) != 0 {
		t.Error("failed AddRule left a rule behind")
	}
}

func TestResetOnAddMatchesCarryForward(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	carry := NewNaiveScaler(ds, work)
	carry.Epsilon = 1e-9
	reset := NewNaiveScaler(ds, work)
	reset.Epsilon = 1e-9
	reset.ResetOnAdd = true

	rules := []rule.Rule{
		rule.AllWildcards(3),
		mustRule(t, ds, "*", "*", "London"),
		mustRule(t, ds, "Fri", "*", "*"),
	}
	var carryLoops, resetLoops int
	for _, r := range rules {
		st1, err := carry.AddRule(r)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := reset.AddRule(r)
		if err != nil {
			t.Fatal(err)
		}
		carryLoops += st1.Loops
		resetLoops += st2.Loops
	}
	// The maximum-entropy solution is unique: both styles converge to the
	// same estimates, the reset style just works harder (Section 5.6.2).
	for i := range carry.Mhat() {
		approx(t, "reset vs carry mhat", reset.Mhat()[i], carry.Mhat()[i], 1e-4)
	}
	if resetLoops < carryLoops {
		t.Errorf("reset style used fewer loops (%d) than carry-forward (%d)", resetLoops, carryLoops)
	}
}

// TestRCTMatchesNaive is the core equivalence property of Section 4.1: the
// RCT scaler computes exactly what Algorithm 1 computes, only faster.
func TestRCTMatchesNaive(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	naive := NewNaiveScaler(ds, work)
	naive.Epsilon = 1e-9
	rct := NewRCTScaler(ds, work, 8)
	rct.Epsilon = 1e-9

	rules := []rule.Rule{
		rule.AllWildcards(3),
		mustRule(t, ds, "*", "*", "London"),
		mustRule(t, ds, "Fri", "*", "*"),
		mustRule(t, ds, "Sat", "*", "*"),
		mustRule(t, ds, "Mon", "*", "*"),
	}
	for _, r := range rules {
		if _, err := naive.AddRule(r); err != nil {
			t.Fatal(err)
		}
		if _, err := rct.AddRule(r); err != nil {
			t.Fatal(err)
		}
		for i := range naive.Mhat() {
			if math.Abs(naive.Mhat()[i]-rct.Mhat()[i]) > 1e-6 {
				t.Fatalf("after %v: mhat[%d] naive=%v rct=%v", r, i, naive.Mhat()[i], rct.Mhat()[i])
			}
		}
		for i := range naive.Lambdas() {
			approx(t, "lambda", rct.Lambdas()[i], naive.Lambdas()[i], 1e-6)
		}
	}
}

// TestRCTTable41Golden pins Table 4.1 of the thesis: the RCT contents right
// after the third rule is appended (before rescaling), in the thesis' row
// order 1000/1100/1010/1110 (written here without the padding bit) on every
// run.
func TestRCTTable41Golden(t *testing.T) {
	want := []RCTRow{
		{BA: "100", Count: 9, SumM: 68, SumMhat: 9 * 8.4},
		{BA: "110", Count: 3, SumM: 41, SumMhat: 3 * 15.25},
		{BA: "101", Count: 1, SumM: 16, SumMhat: 8.4},
		{BA: "111", Count: 1, SumM: 20, SumMhat: 15.25},
	}
	for run := 0; run < 5; run++ {
		ds := datagen.Flights()
		_, work := NewTransform(ds.Measure)
		s := NewRCTScaler(ds, work, 4)
		s.Epsilon = 1e-10
		addFlightRules(t, s, ds, rule.AllWildcards(3), mustRule(t, ds, "*", "*", "London"))

		var snapshot []RCTRow
		s.OnRCTBuilt = func(rows []RCTRow) { snapshot = rows }
		addFlightRules(t, s, ds, mustRule(t, ds, "Fri", "*", "*"))

		if len(snapshot) != len(want) {
			t.Fatalf("RCT has %d rows, want %d: %+v", len(snapshot), len(want), snapshot)
		}
		for i, row := range snapshot {
			w := want[i]
			if row.BA != w.BA || row.Count != w.Count {
				t.Errorf("run %d row %d: BA=%s count=%d, want BA=%s count=%d", run, i, row.BA, row.Count, w.BA, w.Count)
			}
			approx(t, "BA="+row.BA+" SumM", row.SumM, w.SumM, 1e-9)
			approx(t, "BA="+row.BA+" SumMhat", row.SumMhat, w.SumMhat, 1e-6)
		}
		if s.NumRCTRows() != 4 {
			t.Errorf("NumRCTRows = %d", s.NumRCTRows())
		}
	}
}

func TestRCTRejectsEmptySupport(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewRCTScaler(ds, work, 4)
	addFlightRules(t, s, ds, rule.AllWildcards(3))
	bad := rule.Rule{0, 0, 1}
	if _, err := s.AddRule(bad); err == nil {
		t.Error("empty-support rule accepted")
	}
	// The scaler must remain usable.
	addFlightRules(t, s, ds, mustRule(t, ds, "*", "*", "London"))
	if len(s.Rules()) != 2 {
		t.Errorf("rules = %d, want 2", len(s.Rules()))
	}
}

func TestRCTCapacityExceeded(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewRCTScaler(ds, work, 1)
	addFlightRules(t, s, ds, rule.AllWildcards(3))
	// Capacity of 1 rounds up to one 64-bit word; fill it.
	// (Capacity is words*64, so add until the error trips.)
	added := 1
	for day := range ds.Dicts[0].Values() {
		r := rule.Rule{int32(day), rule.Wildcard, rule.Wildcard}
		if _, err := s.AddRule(r); err != nil {
			t.Fatalf("unexpected error at rule %d: %v", added, err)
		}
		added++
	}
	if added > 64 {
		t.Skip("fixture too small to exceed capacity")
	}
}

func TestScaleStatsDataScans(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	rct := NewRCTScaler(ds, work, 4)
	st, err := rct.AddRule(rule.AllWildcards(3))
	if err != nil {
		t.Fatal(err)
	}
	if st.DataScans != 2 {
		t.Errorf("RCT data scans = %d, want 2 regardless of loop count", st.DataScans)
	}
	naive := NewNaiveScaler(ds, work)
	if _, err := naive.AddRule(rule.AllWildcards(3)); err != nil {
		t.Fatal(err)
	}
	st2, err := naive.AddRule(mustRule(t, ds, "*", "*", "London"))
	if err != nil {
		t.Fatal(err)
	}
	if st2.DataScans < 4 {
		t.Errorf("naive data scans = %d, want >= 2 per loop with >= 2 loops", st2.DataScans)
	}
}

func TestNonConvergenceReported(t *testing.T) {
	ds := datagen.Flights()
	_, work := NewTransform(ds.Measure)
	s := NewNaiveScaler(ds, work)
	s.Epsilon = 0 // unreachable threshold in floating point for this data
	s.MaxLoops = 3
	if _, err := s.AddRule(rule.AllWildcards(3)); err != nil {
		// A single all-covering rule can converge in one loop even with
		// eps=0 if the ratio is exact; adding a second rule must not.
		t.Skipf("first rule already failed: %v", err)
	}
	_, err := s.AddRule(mustRule(t, ds, "*", "*", "London"))
	if err == nil {
		t.Skip("converged exactly; nothing to report")
	}
}

// TestQuickRCTMatchesNaiveOnRandomData fuzzes the core equivalence of
// Section 4.1 over random datasets and rule sequences.
func TestQuickRCTMatchesNaiveOnRandomData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(3) + 2
		rows := rng.Intn(40) + 10
		b := dataset.NewBuilder(dataset.Schema{DimNames: make([]string, d), MeasureName: "m"})
		for j := 0; j < d; j++ {
			b.Dict(j).Code("a")
			b.Dict(j).Code("b")
			b.Dict(j).Code("c")
		}
		codes := make([]int32, d)
		for i := 0; i < rows; i++ {
			for j := range codes {
				codes[j] = int32(rng.Intn(3))
			}
			if err := b.AddCodes(codes, float64(rng.Intn(20))+1); err != nil {
				return false
			}
		}
		ds := b.MustBuild()
		_, work := NewTransform(ds.Measure)
		naive := NewNaiveScaler(ds, work)
		naive.Epsilon = 1e-8
		rct := NewRCTScaler(ds, work, 8)
		rct.Epsilon = 1e-8
		ruleSet := []rule.Rule{rule.AllWildcards(d)}
		for len(ruleSet) < 4 {
			r := rule.AllWildcards(d)
			r[rng.Intn(d)] = int32(rng.Intn(3))
			if r.SupportSize(ds) > 0 {
				ruleSet = append(ruleSet, r)
			}
		}
		for _, r := range ruleSet {
			if _, err := naive.AddRule(r); err != nil {
				return true // both must fail identically
			}
			if _, err := rct.AddRule(r); err != nil {
				return false
			}
			for i := range naive.Mhat() {
				if math.Abs(naive.Mhat()[i]-rct.Mhat()[i]) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// cyclicDataset has rows cycling through the same 60 value combinations of
// three dimensions, so its coverage signatures do not depend on its size.
func cyclicDataset(t testing.TB, rows int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(dataset.Schema{DimNames: []string{"a", "b", "c"}, MeasureName: "m"})
	for i := 0; i < rows; i++ {
		vals := []string{fmt.Sprint(i % 4), fmt.Sprint(i / 4 % 5), fmt.Sprint(i / 20 % 3)}
		if err := b.Add(vals, float64(1+i%60)); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// TestRCTTakesAnyRuleCount: capacity follows the caller's rule count, with
// no cap below it — 600 disjoint rules fit, and each holds exactly.
func TestRCTTakesAnyRuleCount(t *testing.T) {
	const n = 600
	b := dataset.NewBuilder(dataset.Schema{DimNames: []string{"v"}, MeasureName: "m"})
	for i := 0; i < 2*n; i++ {
		if err := b.Add([]string{fmt.Sprint(i % n)}, float64(1+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	ds := b.MustBuild()
	_, work := NewTransform(ds.Measure)
	s := NewRCTScaler(ds, work, n)
	for v := 0; v < n; v++ {
		if _, err := s.AddRule(rule.Rule{int32(v)}); err != nil {
			t.Fatalf("rule %d: %v", v, err)
		}
	}
	for i, v := range s.Mhat() {
		j := (i + n) % (2 * n)
		approx(t, "disjoint-rule estimate", v, (work[i]+work[j])/2, 1e-9)
	}
}

// TestWarmAddRuleAllocatesPerSignature: a warm AddRule allocates per
// distinct coverage signature, never per row — the same count at 1k and 10k
// rows with the same signatures.
func TestWarmAddRuleAllocatesPerSignature(t *testing.T) {
	allocs := func(rows int) float64 {
		ds := cyclicDataset(t, rows)
		_, work := NewTransform(ds.Measure)
		s := NewRCTScaler(ds, work, 8)
		for _, r := range []rule.Rule{rule.AllWildcards(3), {0, rule.Wildcard, rule.Wildcard}} {
			if _, err := s.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
		r := rule.Rule{rule.Wildcard, 1, rule.Wildcard}
		return testing.AllocsPerRun(3, func() {
			if _, err := s.AddRule(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("warm AddRule: %v allocs at 1k rows, %v at 10k", small, large)
	}
	if small > 100 {
		t.Errorf("warm AddRule: %v allocs for 60 signatures", small)
	}
}

// TestProductsWalkSetBitsAcrossWords: each row's estimate is the product of
// the λ of exactly its set bits, including bits past the first word.
func TestProductsWalkSetBitsAcrossWords(t *testing.T) {
	lambda := make([]float64, 130)
	for i := range lambda {
		lambda[i] = 1 + float64(i)/64
	}
	sigs := [][]uint64{{0, 0, 0}, {1, 0, 0}, {1<<63 | 5, 1, 0}, {0, 1 << 63, 3}}
	var f Fragment
	f.Reset()
	for _, sig := range sigs {
		f.Add(sig, 1, 1)
	}
	est := make([]float64, len(sigs))
	f.WriteBack(BuildRCT(3, &f).Products(lambda), est)
	for i, sig := range sigs {
		want := 1.0
		for b := 0; b < 3*64; b++ {
			if sig[b/64]>>(b%64)&1 != 0 {
				want *= lambda[b]
			}
		}
		if est[i] != want {
			t.Errorf("signature %x: product %v, want %v", sig, est[i], want)
		}
	}
}

// TestRCTRowOrderIsSignatureByteOrder: rows sort by the bytes of their
// signatures written word by word, least significant byte first (so 0x0100
// precedes 0x01), whatever order the tuples arrive in, and a row's sums add
// up across fragments.
func TestRCTRowOrderIsSignatureByteOrder(t *testing.T) {
	sigs := [][]uint64{{0x0100, 2}, {0x01, 0}, {0x0100, 1}, {0x02, 0}, {0x01, 0}}
	frags := []*Fragment{{}, {}}
	for i, sig := range sigs {
		frags[i%2].Add(sig, float64(i), float64(i))
	}
	rct := BuildRCT(2, frags...)
	want := [][]uint64{{0x0100, 1}, {0x0100, 2}, {0x01, 0}, {0x02, 0}}
	if rct.Len() != len(want) {
		t.Fatalf("%d rows, want %d", rct.Len(), len(want))
	}
	for i, w := range want {
		if got := rct.ba[2*i : 2*i+2]; got[0] != w[0] || got[1] != w[1] {
			t.Errorf("row %d = %x, want %x", i, got, w)
		}
	}
	if r := rct.rows[2]; r.count != 2 || r.sumM != 1+4 {
		t.Errorf("merged row {1,0} = %+v, want count 2, sumM 5", r)
	}
}
