// Package maxent implements the maximum-entropy machinery of SIRUM
// (Chapter 2 of the thesis): the measure transformations that make the
// optimization well-posed, Kullback-Leibler divergence, the information-gain
// estimate of Equation 2.2, and iterative scaling.
//
// Iterative scaling is one loop and one Rule Coverage Table. Scale is the
// loop of Algorithm 1: it owns ε, the max-violation pick and the λ update,
// and reaches the data only through two callbacks. Algorithm 3 (Section 4.1)
// is the same loop with its sums taken over an RCT instead of over D; RCT
// groups coverage signatures into rows in one fixed order and lists, per
// rule, the rows it covers, so one scaling loop costs one step per covered
// row rather than one per rule and row. Building it does no string or map
// work: fragments file each tuple by its previous row and the new rules it
// matches, through integer tables, and BuildRCT radix-sorts their rows'
// signatures; only this package knows a signature's layout. Front ends
// differ only in how they scan: NaiveScaler and RCTScaler scan dataset rows,
// the miner's distributed scalers scan engine blocks.
package maxent

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// by coverage signature (bit r set iff the tuple matches rule r), numbering
// rows in first-seen order. It records each tuple's row as it goes, so the
// write-back reads a row's estimate instead of keying the tuple again.
//
// A tuple is filed by integers, never by its signature's bytes. A pass
// opened by Extend sees the tuples of the previous pass again, in the same
// order, each signature grown by bits [lo, hi) only, and Add is passed just
// the new bits; so a tuple's row is a function of its previous row and those
// bits, looked up fileChunk bits at a time in dense tables, and a new row's
// signature is its parent row's plus those bits. This departs from
// Algorithm 3, which keeps a coverage bit array per tuple: the previous row
// determines the same signature, so a tuple costs one row id. Storage is
// reused across passes, so a warm pass allocates per distinct signature, not
// per tuple.
type Fragment struct {
	words, lo  int      // signature words; first new bit of this pass
	sigs, psig []uint64 // row i's signature: sigs[i*words:(i+1)*words]; psig: the previous pass's
	rows       []rctRow
	ids        []int32 // row of each added tuple, in scan order
	prev       []int32 // row of each tuple in the previous pass; empty: none
	gid        []int32 // row → row of the RCT built from this fragment
	levels     []fileLevel
}

// fileChunk is the most bits one fileLevel files, which bounds its table to
// 2^fileChunk entries per class of the level before it.
const fileChunk = 4

// fileLevel refines the classes of the level before it (for the first
// level, the previous pass's rows) by bits [at, at+width) of the signature.
// The last level's classes are the fragment's rows.
type fileLevel struct {
	at, width int
	next      []int32 // parent<<width | bits → class, -1 until seen
	n         int32   // classes so far
}

type rctRow struct {
	count         int
	sumM, sumMhat float64
}

// Extend empties f for a pass over the same tuples, in the same order, as
// the previous one, whose signatures (words wide) have gained bits in
// [lo, hi) and changed nowhere else. With no previous pass every signature
// starts empty.
func (f *Fragment) Extend(words, lo, hi int) {
	parents := 1
	if len(f.ids) > 0 {
		parents = len(f.rows)
	}
	f.prev, f.ids = f.ids, f.prev[:0]
	f.psig, f.sigs = f.sigs, f.psig[:0]
	if len(f.prev) == 0 {
		f.psig = append(f.psig[:0], make([]uint64, words)...) // the empty parent
	}
	f.rows = f.rows[:0]
	f.words, f.lo = words, lo
	// Chunks end on multiples of fileChunk, so none straddles a word.
	f.levels = f.levels[:0]
	for at := lo; ; {
		end := min(hi, (at/fileChunk+1)*fileChunk)
		if len(f.levels) == cap(f.levels) {
			f.levels = append(f.levels, fileLevel{})
		} else {
			f.levels = f.levels[:len(f.levels)+1]
		}
		lv := &f.levels[len(f.levels)-1]
		lv.at, lv.width, lv.n, lv.next = at, end-at, 0, lv.next[:0]
		if end == hi {
			break
		}
		at = end
	}
	f.levels[0].grow(parents)
}

// grow adds the table entries of n more parent classes.
func (lv *fileLevel) grow(n int) {
	for range n << lv.width {
		lv.next = append(lv.next, -1)
	}
}

// Add files one tuple with measure m and estimate mhat under its row.
// covered lists, ascending, the new rules the tuple matches, each relative
// to Extend's lo.
func (f *Fragment) Add(covered []int, m, mhat float64) {
	var id int32
	if len(f.prev) > 0 {
		if len(f.ids) == len(f.prev) {
			panic("maxent: Fragment.Add past the tuples of the previous pass")
		}
		id = f.prev[len(f.ids)]
	}
	parent, c, last := id, 0, len(f.levels)-1
	for k := range f.levels {
		lv := &f.levels[k]
		slot := int(id) << lv.width
		for ; c < len(covered) && f.lo+covered[c] < lv.at+lv.width; c++ {
			slot |= 1 << (f.lo + covered[c] - lv.at)
		}
		child := lv.next[slot]
		if child < 0 {
			child = lv.n
			lv.n++
			lv.next[slot] = child
			if k < last {
				f.levels[k+1].grow(1)
			} else {
				f.sigs = append(f.sigs, f.psig[int(parent)*f.words:int(parent+1)*f.words]...)
				sig := f.sigs[len(f.sigs)-f.words:]
				for _, r := range covered {
					sig[(f.lo+r)>>6] |= 1 << ((f.lo + r) & 63)
				}
				f.rows = append(f.rows, rctRow{})
			}
		}
		id = child
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
// share it, plus a rule-major index of the rows each rule covers. Sums and
// Rescale walk a rule's cover list, so a scaling loop costs one step per
// covered row — the set bits of the table — not rules × rows.
//
// Rows are in ascending byte order of the signature's little-endian
// encoding, and cover lists in ascending row order. Σm̂ is a float sum, so
// that one fixed order is what makes equal fits converge to the same bits
// on every run and through every front end.
type RCT struct {
	words int
	ba    []uint64 // row i's signature: ba[i*words:(i+1)*words]
	rows  []rctRow
	cover []int32 // rows rule r covers, ascending: cover[start[r]:start[r+1]]
	start []int32 // len words*64 + 1

	// Build scratch, kept so a warm rebuild does not allocate: every
	// fragment row (an entry) with its signature, in fragment order, the
	// entries' sorted order and each entry's RCT row.
	keys       []uint64
	entries    []rctRow
	order, tmp []int32
	gid        []int32
}

// BuildRCT merges fragments into a new RCT; see (*RCT).Build.
func BuildRCT(words int, frags ...*Fragment) *RCT {
	t := new(RCT)
	t.Build(words, frags...)
	return t
}

// Build refills t from frags, reusing its storage. Entries sort by
// signature with ties in fragment order, so a row's sums add up fragment by
// fragment; each fragment learns its rows' RCT rows (gid).
func (t *RCT) Build(words int, frags ...*Fragment) {
	t.words = words
	t.keys, t.entries = t.keys[:0], t.entries[:0]
	for _, f := range frags {
		t.keys = append(t.keys, f.sigs...)
		t.entries = append(t.entries, f.rows...)
	}
	n := len(t.entries)
	t.sortEntries()

	t.ba, t.rows = t.ba[:0], t.rows[:0]
	t.gid = resize(t.gid, n)
	t.start = resize(t.start, words*64+1)
	clear(t.start)
	for _, e := range t.order {
		sig, en := t.keys[int(e)*words:int(e+1)*words], t.entries[e]
		g := len(t.rows) - 1
		if g < 0 || !slices.Equal(sig, t.ba[g*words:]) {
			g++
			t.ba = append(t.ba, sig...)
			t.rows = append(t.rows, en)
			forEachBit(sig, func(r int) { t.start[r+1]++ })
		} else {
			r := &t.rows[g]
			r.count += en.count
			r.sumM += en.sumM
			r.sumMhat += en.sumMhat
		}
		t.gid[e] = int32(g)
	}

	// Cover lists: count above, place here, one pass over the rows' set bits.
	for r := 1; r < len(t.start); r++ {
		t.start[r] += t.start[r-1]
	}
	t.cover = resize(t.cover, int(t.start[len(t.start)-1]))
	for g := range t.rows {
		forEachBit(t.ba[g*words:(g+1)*words], func(r int) {
			t.cover[t.start[r]] = int32(g)
			t.start[r]++
		})
	}
	copy(t.start[1:], t.start) // each start[r] advanced to start[r+1]
	t.start[0] = 0

	at := 0
	for _, f := range frags {
		f.gid = append(f.gid[:0], t.gid[at:at+len(f.rows)]...)
		at += len(f.rows)
	}
}

// sortEntries sets t.order to the entries in ascending little-endian byte
// order of their signatures — byte 0 of word 0 first — with ties by entry
// index: a stable LSD radix sort over the byte columns that vary.
func (t *RCT) sortEntries() {
	n := len(t.entries)
	t.order, t.tmp = resize(t.order, n), resize(t.tmp, n)
	for i := range t.order {
		t.order[i] = int32(i)
	}
	words := t.words
	for w := words - 1; w >= 0 && n > 1; w-- {
		or, and := uint64(0), ^uint64(0)
		for e := range n {
			or |= t.keys[e*words+w]
			and &= t.keys[e*words+w]
		}
		for shift := 56; shift >= 0; shift -= 8 {
			if (or^and)>>shift&0xff == 0 {
				continue // every entry has the same byte here
			}
			var at [257]int32
			for e := range n {
				at[t.keys[e*words+w]>>shift&0xff+1]++
			}
			for b := 1; b < len(at); b++ {
				at[b] += at[b-1]
			}
			for _, e := range t.order {
				b := t.keys[int(e)*words+w] >> shift & 0xff
				t.tmp[at[b]] = e
				at[b]++
			}
			t.order, t.tmp = t.tmp, t.order
		}
	}
}

// resize returns s with length n, reusing its array when it is big enough.
func resize(s []int32, n int) []int32 {
	return slices.Grow(s[:0], n)[:n]
}

// forEachBit calls fn with the index of every set bit of sig, ascending.
func forEachBit(sig []uint64, fn func(int)) {
	for wi, w := range sig {
		for ; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// Len returns the number of rows.
func (t *RCT) Len() int { return len(t.rows) }

// Sums fills dst[r] with Σm̂ over the rows rule r covers, in ascending row
// order: the sums callback of Scale for every RCT front end.
func (t *RCT) Sums(dst []float64) {
	for r := range dst {
		var sum float64
		for _, i := range t.cover[t.start[r]:t.start[r+1]] {
			sum += t.rows[i].sumMhat
		}
		dst[r] = sum
	}
}

// Rescale multiplies Σm̂ of the rows rule r covers by ratio.
func (t *RCT) Rescale(r int, ratio float64) {
	for _, i := range t.cover[t.start[r]:t.start[r+1]] {
		t.rows[i].sumMhat *= ratio
	}
}

// Products returns, per row, the product of the λ of the rules its
// signature covers: the estimate every tuple of the row shares.
func (t *RCT) Products(lambda []float64) []float64 {
	est := make([]float64, len(t.rows))
	for i := range est {
		p := 1.0
		forEachBit(t.ba[i*t.words:(i+1)*t.words], func(r int) { p *= lambda[r] })
		est[i] = p
	}
	return est
}
