package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1)
	z := NewZipf(r, 1.5, 100)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	// Value 0 must dominate value 50 heavily in a Zipf distribution.
	if counts[0] < 10*counts[50]+1 {
		t.Errorf("distribution not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfClampsExponent(t *testing.T) {
	z := NewZipf(NewRand(1), 0.5, 10) // s <= 1 is clamped, must not panic
	_ = z.Draw()
}

func TestZipfEmptyDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) did not panic")
		}
	}()
	NewZipf(NewRand(1), 2, 0)
}

func TestReservoirSample(t *testing.T) {
	r := NewRand(7)
	got := ReservoirSample(r, 1000, 50)
	if len(got) != 50 {
		t.Fatalf("len = %d, want 50", len(got))
	}
	seen := map[int]bool{}
	prev := -1
	for _, v := range got {
		if v < 0 || v >= 1000 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		if v <= prev {
			t.Fatalf("not sorted: %v", got)
		}
		seen[v] = true
		prev = v
	}
}

func TestReservoirSampleKTooLarge(t *testing.T) {
	got := ReservoirSample(NewRand(1), 5, 10)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want identity", got)
		}
	}
}

func TestReservoirSampleUniform(t *testing.T) {
	// Each index should be selected with probability k/n; check rough
	// uniformity across many trials.
	const n, k, trials = 20, 5, 4000
	counts := make([]int, n)
	r := NewRand(3)
	for tr := 0; tr < trials; tr++ {
		for _, v := range ReservoirSample(r, n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.2 {
			t.Errorf("index %d selected %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBernoulliSample(t *testing.T) {
	r := NewRand(11)
	got := BernoulliSample(r, 10000, 0.1)
	if len(got) < 800 || len(got) > 1200 {
		t.Errorf("10%% sample of 10000 returned %d rows", len(got))
	}
	if len(BernoulliSample(r, 100, 0)) != 0 {
		t.Error("p=0 sample not empty")
	}
	if len(BernoulliSample(r, 100, 1)) != 100 {
		t.Error("p=1 sample not full")
	}
	if len(BernoulliSample(r, 100, -0.5)) != 0 {
		t.Error("negative p sample not empty")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p, want float64
	}{{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40}}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile != 0")
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		pp := math.Mod(math.Abs(p), 1)
		got := Percentile(sorted, pp)
		return got >= sorted[0]-1e-9 && got <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickReservoirNoDuplicates(t *testing.T) {
	f := func(seed int64, n16, k16 uint16) bool {
		n := int(n16)%500 + 1
		k := int(k16)%500 + 1
		got := ReservoirSample(NewRand(seed), n, k)
		if len(got) != min(n, k) {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
