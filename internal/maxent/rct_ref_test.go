package maxent

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refFragment, refRCT and refBuildRCT are the RCT kernel as it was before
// cover lists and integer filing: each tuple keyed by its signature's
// little-endian bytes in a map, fragments merged through a string-keyed map
// and sorted by string comparison, and every loop testing every rule's bit
// on every row. They are the oracle the kernel must match to the bit.
type refFragment struct {
	index map[string]int32
	sigs  []uint64
	rows  []rctRow
	ids   []int32
	gid   []int32
	key   []byte
}

func (f *refFragment) Reset() {
	if f.index == nil {
		f.index = make(map[string]int32)
	}
	clear(f.index)
	f.sigs, f.rows, f.ids = f.sigs[:0], f.rows[:0], f.ids[:0]
}

func (f *refFragment) Add(ba []uint64, m, mhat float64) {
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

type refRCT struct {
	words int
	ba    []uint64
	rows  []rctRow
}

func refBuildRCT(words int, frags ...*refFragment) *refRCT {
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
	t := &refRCT{words: words, rows: make([]rctRow, len(all))}
	for g, m := range all {
		at[m.key] = g
		t.ba = append(t.ba, m.sig...)
		t.rows[g] = m.rctRow
	}
	for _, f := range frags {
		f.gid = make([]int32, len(f.rows))
		for key, id := range f.index {
			f.gid[id] = int32(at[key])
		}
	}
	return t
}

func (t *refRCT) Sums(dst []float64) {
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

func (t *refRCT) Rescale(r int, ratio float64) {
	word, bit := r/64, uint64(1)<<(uint(r)%64)
	for i := range t.rows {
		if t.ba[i*t.words+word]&bit != 0 {
			t.rows[i].sumMhat *= ratio
		}
	}
}

func (t *refRCT) Products(lambda []float64) []float64 {
	est := make([]float64, len(t.rows))
	for i := range est {
		p := 1.0
		for r := 0; r < t.words*64 && r < len(lambda); r++ {
			if t.ba[i*t.words+r/64]>>(uint(r)%64)&1 != 0 {
				p *= lambda[r]
			}
		}
		est[i] = p
	}
	return est
}

// coveredIn lists the set bits of sig in [lo, hi), each relative to lo:
// what a scaler passes Fragment.Add for a tuple of that signature.
func coveredIn(sig []uint64, lo, hi int) []int {
	var covered []int
	for b := lo; b < hi; b++ {
		if sig[b/64]>>(b%64)&1 != 0 {
			covered = append(covered, b-lo)
		}
	}
	return covered
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// diffKernels holds the kernel's RCT, and the fragments it was built from,
// to the reference's: row order, signatures, count/Σm/Σm̂ bits, each
// fragment's rows and gid, then Sums, Rescale and Products bits under a
// random rescale sequence of rules [0, nRules).
func diffKernels(t *testing.T, rng *rand.Rand, what string, words, nRules int,
	rct *RCT, frags []*Fragment, ref *refRCT, refFrags []*refFragment) {
	t.Helper()
	if rct.Len() != len(ref.rows) {
		t.Fatalf("%s: %d rows, reference %d", what, rct.Len(), len(ref.rows))
	}
	if !slices.Equal(rct.ba, ref.ba) {
		t.Fatalf("%s: row signatures differ:\n%x\n%x", what, rct.ba, ref.ba)
	}
	for i, r := range rct.rows {
		w := ref.rows[i]
		if r.count != w.count || !sameBits([]float64{r.sumM, r.sumMhat}, []float64{w.sumM, w.sumMhat}) {
			t.Fatalf("%s: row %d = %+v, reference %+v", what, i, r, w)
		}
	}
	for fi, f := range frags {
		rf := refFrags[fi]
		if !slices.Equal(f.ids, rf.ids) || !slices.Equal(f.gid, rf.gid) {
			t.Fatalf("%s: fragment %d ids %v gid %v, reference ids %v gid %v", what, fi, f.ids, f.gid, rf.ids, rf.gid)
		}
	}
	got, want := make([]float64, nRules), make([]float64, nRules)
	for step := 0; step < 20; step++ {
		rct.Sums(got)
		ref.Sums(want)
		if !sameBits(got, want) {
			t.Fatalf("%s: step %d Sums %v, reference %v", what, step, got, want)
		}
		if nRules == 0 {
			break
		}
		r, ratio := rng.Intn(nRules), 0.5+rng.Float64()
		rct.Rescale(r, ratio)
		ref.Rescale(r, ratio)
	}
	lambda := make([]float64, words*64)
	for i := range lambda {
		lambda[i] = 0.5 + rng.Float64()
	}
	if !sameBits(rct.Products(lambda), ref.Products(lambda)) {
		t.Fatalf("%s: Products differ", what)
	}
}

// TestRCTKernelMatchesReference runs the scalers' call sequences — each
// call extends every tuple's signature by 1, 2, 5 or 70 new rules, files
// the fragments, builds, scales and writes back — through the kernel and
// the reference side by side. Tuples draw their coverage from a few types,
// so signatures repeat within and across fragments; some fragments are
// empty; and sequences start at bit 0, 5 or 61, so rules fall on both sides
// of a byte boundary (7→8) and a word boundary (63→64).
func TestRCTKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, perCall := range []int{1, 2, 5, 70} {
		for trial := 0; trial < 40; trial++ {
			words := 1 + rng.Intn(3)
			start := []int{0, 5, 61}[rng.Intn(3)]
			if start+perCall > words*64 {
				continue
			}
			nTypes := 1 + rng.Intn(8)
			cover := make([][]bool, nTypes) // type × rule
			for ty := range cover {
				cover[ty] = make([]bool, words*64)
				p := rng.Float64()
				for r := range cover[ty] {
					cover[ty][r] = rng.Float64() < p
				}
			}
			nFrags := 1 + rng.Intn(4)
			type tuple struct {
				ty      int
				m, mhat float64
				ba      []uint64
			}
			blocks := make([][]tuple, nFrags)
			for bi := range blocks {
				n := rng.Intn(40)
				if rng.Intn(4) == 0 {
					n = 0
				}
				for range n {
					blocks[bi] = append(blocks[bi], tuple{ty: rng.Intn(nTypes), m: rng.Float64() * 10, mhat: 1, ba: make([]uint64, words)})
				}
			}
			frags := make([]*Fragment, nFrags)
			refFrags := make([]*refFragment, nFrags)
			for bi := range frags {
				frags[bi], refFrags[bi] = new(Fragment), new(refFragment)
			}
			var rct RCT // one table rebuilt in place, as the scalers keep it
			for base := start; base+perCall <= words*64 && base < start+8*perCall; base += perCall {
				for bi, blk := range blocks {
					frags[bi].Extend(words, base, base+perCall)
					refFrags[bi].Reset()
					for _, tp := range blk {
						for r := base; r < base+perCall; r++ {
							if cover[tp.ty][r] {
								tp.ba[r/64] |= 1 << (uint(r) % 64)
							}
						}
						frags[bi].Add(coveredIn(tp.ba, base, base+perCall), tp.m, tp.mhat)
						refFrags[bi].Add(tp.ba, tp.m, tp.mhat)
					}
				}
				rct.Build(words, frags...)
				ref := refBuildRCT(words, refFrags...)
				what := fmt.Sprintf("words %d, rules [%d, %d)", words, base, base+perCall)
				diffKernels(t, rng, what, words, base+perCall, &rct, frags, ref, refFrags)

				// Write back one product per row, as a converged fit does,
				// so the next call sums real estimates.
				lambda := make([]float64, words*64)
				for i := range lambda {
					lambda[i] = 0.5 + rng.Float64()
				}
				est := rct.Products(lambda)
				for bi, blk := range blocks {
					mhat := make([]float64, len(blk))
					frags[bi].WriteBack(est, mhat)
					for i := range blk {
						blk[i].mhat = mhat[i]
					}
				}
			}
		}
	}
}

// TestRCTWholeSignatureFilingMatchesReference: a first pass opened over
// every bit files each tuple by all its bits. Signatures drawn from a small pool with bits anywhere in
// up to three words, repeated across fragments, build the reference's RCT.
func TestRCTWholeSignatureFilingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		words := 1 + rng.Intn(3)
		pool := make([][]uint64, 1+rng.Intn(10))
		for i := range pool {
			pool[i] = make([]uint64, words)
			for w := range pool[i] {
				switch rng.Intn(3) {
				case 0: // empty word
				case 1:
					pool[i][w] = 1<<7 | 1<<8 | 1<<63
					pool[i][w] &= rng.Uint64()
				default:
					pool[i][w] = rng.Uint64()
				}
			}
		}
		nFrags := 1 + rng.Intn(4)
		frags := make([]*Fragment, nFrags)
		refFrags := make([]*refFragment, nFrags)
		for bi := range frags {
			frags[bi], refFrags[bi] = new(Fragment), new(refFragment)
			frags[bi].Extend(words, 0, words*64)
			refFrags[bi].Reset()
			n := rng.Intn(30)
			if rng.Intn(4) == 0 {
				n = 0
			}
			for range n {
				sig, m := pool[rng.Intn(len(pool))], rng.Float64()
				frags[bi].Add(coveredIn(sig, 0, words*64), m, m/2)
				refFrags[bi].Add(sig, m, m/2)
			}
		}
		rct := BuildRCT(words, frags...)
		diffKernels(t, rng, "whole-signature filing", words, words*64, rct, frags, refBuildRCT(words, refFrags...), refFrags)
	}
}
