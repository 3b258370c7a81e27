// Package stats provides deterministic random sampling and small descriptive
// statistics helpers used by the dataset generators and the experiment
// harness.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic *rand.Rand for the given seed. All
// randomness in the repository flows through explicitly seeded generators so
// experiments are reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf draws values in [0, n) with a Zipfian (power-law) distribution of
// exponent s >= 1. It wraps math/rand's sampler; s close to 1 gives the
// classic heavy skew seen in real categorical columns.
type Zipf struct {
	z *rand.Zipf
	n int
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s (s > 1).
func NewZipf(r *rand.Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("stats: Zipf over empty domain")
	}
	if s <= 1 {
		s = 1.0001
	}
	return &Zipf{z: rand.NewZipf(r, s, 1, uint64(n-1)), n: n}
}

// Draw returns the next sample.
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// N returns the domain size.
func (z *Zipf) N() int { return z.n }

// ReservoirSample returns k indices drawn uniformly without replacement from
// [0, n) using reservoir sampling (Algorithm R). If k >= n it returns all of
// [0, n). The result is sorted.
func ReservoirSample(r *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := r.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	sort.Ints(res)
	return res
}

// BernoulliSample returns the indices i in [0, n) kept by independent coin
// flips with probability p, in increasing order.
func BernoulliSample(r *rand.Rand, n int, p float64) []int {
	if p <= 0 {
		return nil
	}
	if p >= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, int(float64(n)*p)+16)
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			out = append(out, i)
		}
	}
	return out
}

// Percentile returns the p-quantile (0 <= p <= 1) of an already-sorted slice
// using nearest-rank interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
