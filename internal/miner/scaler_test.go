package miner

import (
	"math"
	"math/rand"
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/rule"
)

// distFit adds rules one per AddRules call to a distributed scaler over ds
// split into parts blocks and returns the gathered estimates and λ.
func distFit(t testing.TB, ds *dataset.Dataset, rules []rule.Rule, parts int, useRCT bool, eps float64) (mhat, lambda []float64) {
	t.Helper()
	c := testCluster()
	defer c.Close()
	_, work := maxent.NewTransform(ds.Measure)
	ones := make([]float64, len(work))
	for i := range ones {
		ones[i] = 1
	}
	data, err := engine.CacheTuples(c, engine.BlocksFromColumns(ds.Dims, work, ones, parts))
	if err != nil {
		t.Fatal(err)
	}
	var s distScaler = newNaiveDistScaler(c, data, ds.ApproxBytes(), eps, false, false)
	if useRCT {
		s = newRCTDistScaler(c, data, ds.ApproxBytes(), eps, len(rules))
	}
	for _, r := range rules {
		if err := s.AddRules([]rule.Rule{r}); err != nil {
			t.Fatal(err)
		}
	}
	mhat = make([]float64, len(work))
	for bi := 0; bi < data.NumBlocks(); bi++ {
		b, err := data.Get(bi)
		if err != nil {
			t.Fatal(err)
		}
		copy(mhat[b.Start:], b.Mhat)
	}
	return mhat, s.Lambdas()
}

// rowFit adds rules one at a time to a maxent front end over dataset rows.
func rowFit(t testing.TB, ds *dataset.Dataset, rules []rule.Rule, useRCT bool, eps float64) (mhat, lambda []float64) {
	t.Helper()
	_, work := maxent.NewTransform(ds.Measure)
	naive := maxent.NewNaiveScaler(ds, work)
	naive.Epsilon = eps
	var s maxent.Scaler = naive
	if useRCT {
		rct := maxent.NewRCTScaler(ds, work, len(rules))
		rct.Epsilon = eps
		s = rct
	}
	for _, r := range rules {
		if _, err := s.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return s.Mhat(), s.Lambdas()
}

func sameBits(t testing.TB, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d and %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func closeRel(t testing.TB, what string, a, b []float64, tol float64) {
	t.Helper()
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			t.Fatalf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// singleAttributeRules lists the all-wildcards rule and every single-value
// rule of ds with non-empty support.
func singleAttributeRules(ds *dataset.Dataset) []rule.Rule {
	rules := []rule.Rule{rule.AllWildcards(ds.NumDims())}
	for j, dict := range ds.Dicts {
		for v := range dict.Values() {
			r := rule.AllWildcards(ds.NumDims())
			r[j] = int32(v)
			if r.SupportSize(ds) > 0 {
				rules = append(rules, r)
			}
		}
	}
	return rules
}

// TestScalerFrontEndsShareOneKernel: the miner's block-scanning front ends
// over one block and maxent's row-scanning ones are the same loop and the
// same RCT, so they agree to the bit — across a two-word RCT too — and more
// blocks change only the order partial sums add in.
func TestScalerFrontEndsShareOneKernel(t *testing.T) {
	ds := datagen.Income(1500, 4)
	rules := singleAttributeRules(ds)
	if len(rules) <= 64 {
		t.Fatalf("%d rules: the fixture must need a two-word RCT", len(rules))
	}
	eps := maxent.DefaultEpsilon
	for _, useRCT := range []bool{true, false} {
		n := len(rules)
		if !useRCT {
			n = 12 // Algorithm 1 rescans D per loop
		}
		wantMhat, wantLambda := rowFit(t, ds, rules[:n], useRCT, eps)
		mhat, lambda := distFit(t, ds, rules[:n], 1, useRCT, eps)
		sameBits(t, "mhat", mhat, wantMhat)
		sameBits(t, "lambda", lambda, wantLambda)
		for _, parts := range []int{3, 7} {
			m, _ := distFit(t, ds, rules[:n], parts, useRCT, eps)
			closeRel(t, "mhat over more blocks", m, mhat, 1e-12)
		}
	}
}

// FuzzScalersAgree: on a tiny random dataset and rule list, the RCT front
// end agrees with the naive one at 1e-9, and each maxent front end with the
// one-block miner front end to the bit.
func FuzzScalersAgree(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		b := dataset.NewBuilder(dataset.Schema{DimNames: make([]string, d), MeasureName: "m"})
		for j := 0; j < d; j++ {
			for _, v := range []string{"a", "b", "c"} {
				b.Dict(j).Code(v)
			}
		}
		codes := make([]int32, d)
		for i := 10 + rng.Intn(40); i > 0; i-- {
			for j := range codes {
				codes[j] = int32(rng.Intn(3))
			}
			if err := b.AddCodes(codes, float64(rng.Intn(20))+1); err != nil {
				t.Fatal(err)
			}
		}
		ds := b.MustBuild()
		rules := []rule.Rule{rule.AllWildcards(d)}
		for len(rules) < 2+rng.Intn(5) {
			r := rule.AllWildcards(d)
			for k := 1 + rng.Intn(2); k > 0; k-- {
				r[rng.Intn(d)] = int32(rng.Intn(3))
			}
			if r.SupportSize(ds) > 0 {
				rules = append(rules, r)
			}
		}
		const eps = 1e-12
		naive, naiveLambda := rowFit(t, ds, rules, false, eps)
		rct, rctLambda := rowFit(t, ds, rules, true, eps)
		closeRel(t, "rct vs naive mhat", rct, naive, 1e-9)
		m, l := distFit(t, ds, rules, 1, true, eps)
		sameBits(t, "miner rct mhat", m, rct)
		sameBits(t, "miner rct lambda", l, rctLambda)
		m, l = distFit(t, ds, rules, 1, false, eps)
		sameBits(t, "miner naive mhat", m, naive)
		sameBits(t, "miner naive lambda", l, naiveLambda)
	})
}
