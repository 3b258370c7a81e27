// Package maxent implements the maximum-entropy machinery of SIRUM
// (Chapter 2 of the thesis): the measure transformations that make the
// optimization well-posed, Kullback-Leibler divergence, the information-gain
// estimate of Equation 2.2, and iterative scaling.
//
// Iterative scaling is one loop and one Rule Coverage Table. Scale is the
// loop of Algorithm 1: it owns ε, the max-violation pick and the λ update,
// and reaches the data only through two callbacks. Algorithm 3 (Section 4.1)
// is the same loop with its sums taken over an RCT instead of over D; RCT
// groups coverage signatures into rows in one fixed order. Front ends differ
// only in how they scan: NaiveScaler and RCTScaler scan dataset rows, the
// miner's distributed scalers scan engine blocks.
package maxent

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Scale runs iterative scaling to convergence and returns the number of
// rescales. sums fills dst[r] with Σm̂ over rule r's support set; the rule
// with the largest relative violation of m(r) = Σm̂/counts[r] (first index
// on ties) has λ multiplied by the ratio and rescale applies the same ratio
// to the estimates it covers. The loop stops once every violation is at
// most epsilon, or fails after maxLoops rescales.
func Scale(targets, counts, lambda []float64, epsilon float64, maxLoops int,
	sums func(dst []float64) error, rescale func(r int, ratio float64) error) (int, error) {
	est := make([]float64, len(targets))
	for loop := 0; loop < maxLoops; loop++ {
		if err := sums(est); err != nil {
			return loop, err
		}
		next, worst, ratio := -1, 0.0, 0.0
		for r, sum := range est {
			avg := sum / counts[r]
			if d := relDiff(targets[r], avg); d > worst {
				next, worst, ratio = r, d, scaleRatio(targets[r], avg)
			}
		}
		if next < 0 || worst <= epsilon {
			return loop, nil
		}
		lambda[next] *= ratio
		if err := rescale(next, ratio); err != nil {
			return loop + 1, err
		}
	}
	return maxLoops, fmt.Errorf("maxent: iterative scaling did not converge in %d loops", maxLoops)
}

// relDiff is |m - m̂| / |m| with a guard for vanishing targets, where the
// relative form is meaningless and the absolute difference is used instead.
func relDiff(target, est float64) float64 {
	d := math.Abs(target - est)
	if math.Abs(target) < 1e-12 {
		return d
	}
	return d / math.Abs(target)
}

// scaleRatio is m(r)/m̂(r) with a floor protecting against a zero target
// (which would zero out every covered estimate and break other constraints).
func scaleRatio(target, est float64) float64 {
	const floor = 1e-12
	return max(target, floor) / max(est, floor)
}

// Fragment groups the tuples of one scan — all of D, or one engine block —
// by coverage signature (bit r set iff the tuple matches rule r). It records
// each tuple's row as it goes, so the write-back reads a row's estimate
// instead of keying the tuple again. Reset reuses its storage, so a warm
// build pass allocates per distinct signature, not per tuple.
type Fragment struct {
	index map[string]int32 // signature (8 little-endian bytes per word) → row
	sigs  []uint64         // row i's signature: sigs[i*words:(i+1)*words]
	rows  []rctRow
	ids   []int32 // row of each added tuple, in scan order
	gid   []int32 // row → row of the RCT built from this fragment
	key   []byte
}

type rctRow struct {
	count         int
	sumM, sumMhat float64
}

// Reset empties f for a new build pass.
func (f *Fragment) Reset() {
	if f.index == nil {
		f.index = make(map[string]int32)
	}
	clear(f.index)
	f.sigs, f.rows, f.ids = f.sigs[:0], f.rows[:0], f.ids[:0]
}

// Add files one tuple with coverage signature ba, measure m and estimate
// mhat under its row.
func (f *Fragment) Add(ba []uint64, m, mhat float64) {
	f.key = f.key[:0]
	for _, w := range ba {
		f.key = binary.LittleEndian.AppendUint64(f.key, w)
	}
	id, ok := f.index[string(f.key)]
	if !ok {
		id = int32(len(f.rows))
		f.index[string(f.key)] = id
		f.sigs = append(f.sigs, ba...)
		f.rows = append(f.rows, rctRow{})
	}
	row := &f.rows[id]
	row.count++
	row.sumM += m
	row.sumMhat += mhat
	f.ids = append(f.ids, id)
}

// WriteBack stores est[row] into mhat for every tuple added, in scan order.
func (f *Fragment) WriteBack(est, mhat []float64) {
	for i, id := range f.ids {
		mhat[i] = est[f.gid[id]]
	}
}

// RCT is the Rule Coverage Table of Algorithm 3 (Table 4.1): one row per
// distinct coverage signature, holding the count and sums of the tuples that
// share it. Rows are in ascending byte order of the signature's
// little-endian encoding, so per-rule sums add in one order every run and
// equal fits converge to the same bits.
type RCT struct {
	words int
	ba    []uint64 // row i's signature: ba[i*words:(i+1)*words]
	rows  []rctRow
}

// BuildRCT merges fragments in order, so a row's sums add up fragment by
// fragment, and sorts the rows.
func BuildRCT(words int, frags ...*Fragment) *RCT {
	type merged struct {
		key string
		sig []uint64
		rctRow
	}
	var all []merged
	at := make(map[string]int)
	for _, f := range frags {
		for key, id := range f.index {
			r := f.rows[id]
			g, ok := at[key]
			if !ok {
				at[key] = len(all)
				all = append(all, merged{key, f.sigs[int(id)*words : int(id+1)*words], r})
				continue
			}
			all[g].count += r.count
			all[g].sumM += r.sumM
			all[g].sumMhat += r.sumMhat
		}
	}
	slices.SortFunc(all, func(a, b merged) int { return strings.Compare(a.key, b.key) })
	t := &RCT{words: words, ba: make([]uint64, 0, len(all)*words), rows: make([]rctRow, len(all))}
	for g, m := range all {
		at[m.key] = g
		t.ba = append(t.ba, m.sig...)
		t.rows[g] = m.rctRow
	}
	for _, f := range frags {
		f.gid = slices.Grow(f.gid[:0], len(f.rows))[:len(f.rows)]
		for key, id := range f.index {
			f.gid[id] = int32(at[key])
		}
	}
	return t
}

// Len returns the number of rows.
func (t *RCT) Len() int { return len(t.rows) }

// Sums fills dst[r] with Σm̂ over the rows rule r covers: the sums callback
// of Scale for every RCT front end.
func (t *RCT) Sums(dst []float64) {
	for r := range dst {
		word, bit := r/64, uint64(1)<<(uint(r)%64)
		var sum float64
		for i := range t.rows {
			if t.ba[i*t.words+word]&bit != 0 {
				sum += t.rows[i].sumMhat
			}
		}
		dst[r] = sum
	}
}

// Rescale multiplies Σm̂ of the rows rule r covers by ratio.
func (t *RCT) Rescale(r int, ratio float64) {
	word, bit := r/64, uint64(1)<<(uint(r)%64)
	for i := range t.rows {
		if t.ba[i*t.words+word]&bit != 0 {
			t.rows[i].sumMhat *= ratio
		}
	}
}

// Products returns, per row, the product of the λ of the rules its
// signature covers: the estimate every tuple of the row shares.
func (t *RCT) Products(lambda []float64) []float64 {
	est := make([]float64, len(t.rows))
	for i := range est {
		p := 1.0
		for wi, w := range t.ba[i*t.words : (i+1)*t.words] {
			for ; w != 0; w &= w - 1 {
				p *= lambda[wi*64+bits.TrailingZeros64(w)]
			}
		}
		est[i] = p
	}
	return est
}
