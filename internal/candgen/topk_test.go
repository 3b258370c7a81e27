package candgen

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sirum/internal/cube"
	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/rule"
)

// boxedHeap is the container/heap min-heap by gain the typed candHeap
// replaces: the reference its sifts must match step for step.
type boxedHeap []Candidate[uint64]

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].Gain < h[j].Gain }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(Candidate[uint64])) }
func (h *boxedHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// referenceScore is the scoring loop before the Σm ≤ Σm̂ and ln x ≤ x − 1
// short cuts: every candidate's gain computed, every positive one offered
// through container/heap.
func referenceScore(h *boxedHeap, n int, key uint64, agg cube.Agg) {
	g := maxent.Gain(agg.SumM, agg.SumMhat)
	if g <= 0 {
		return
	}
	c := Candidate[uint64]{Key: key, Gain: g, Agg: agg}
	if h.Len() < n {
		heap.Push(h, c)
	} else if c.Gain > (*h)[0].Gain {
		(*h)[0] = c
		heap.Fix(h, 0)
	}
}

// TestTopKMatchesBoxedHeapAndFullSort: over random candidate streams with
// many equal gains, near-1 ratios on large Σm (where the logarithm's
// rounding is largest against the gain) and non-positive sums, the typed
// heap with its skips and its late exclusion ends every partition with
// exactly the array of the reference heap, fed only unexcluded keys, and
// the head merge returns exactly the first n of a full sort by (gain desc,
// key asc).
func TestTopKMatchesBoxedHeapAndFullSort(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 1
		parts := r.Intn(5) + 1
		var tops [][]Candidate[uint64]
		var all []Candidate[uint64]
		key := uint64(0)
		for p := 0; p < parts; p++ {
			typed := candHeap[uint64]{}
			var ref boxedHeap
			exclude := map[uint64]bool{} // selected rules: dropped before the reference scores
			for range r.Intn(4) {
				exclude[key+uint64(r.Intn(200))] = true
			}
			tight := r.Intn(3) == 0 // every ratio near 1: gains as small as their rounding
			for i, m := 0, r.Intn(200); i < m; i++ {
				key += uint64(r.Intn(3) + 1)
				var agg cube.Agg
				mode := r.Intn(5)
				if tight {
					mode = 1
				}
				switch mode {
				case 0: // a handful of repeated sums: equal gains
					agg = cube.Agg{SumM: float64(r.Intn(4) + 2), SumMhat: 1}
				case 1: // a ratio within a few ulps of 1 on a large Σm
					sm := 1e9 * (1 + r.Float64())
					ulp := math.Nextafter(sm, math.Inf(1)) - sm
					agg = cube.Agg{SumM: sm, SumMhat: sm - float64(r.Intn(8)+1)*ulp}
				case 2:
					agg = cube.Agg{SumM: r.Float64() - 0.2, SumMhat: r.Float64() - 0.2}
				default:
					agg = cube.Agg{SumM: r.Float64() * 100, SumMhat: r.Float64() * 100}
				}
				typed.consider(n, key, agg, exclude)
				if !exclude[key] {
					referenceScore(&ref, n, key, agg)
				}
			}
			if !slices.Equal(typed, candHeap[uint64](ref)) {
				t.Fatalf("seed %d part %d: typed heap %v, container/heap %v", seed, p, typed, ref)
			}
			all = append(all, ref...)
			tops = append(tops, typed.sorted())
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Gain != all[j].Gain {
				return all[i].Gain > all[j].Gain
			}
			return all[i].Key < all[j].Key
		})
		if len(all) > n {
			all = all[:n]
		}
		if got := mergeTopK(tops, n); !slices.Equal(got, all) {
			t.Fatalf("seed %d: merge %v, full sort %v", seed, got, all)
		}
	}
}

// BenchmarkTopByGainSlots is one round's top-k over the closed slots of
// income/3000's exhaustive lattice, each slot's Σm̂ a fixed share of its Σm:
// the selection a light exploration round pays.
func BenchmarkTopByGainSlots(b *testing.B) {
	ds := datagen.Income(3000, 1)
	p, ok := rule.NewPacker(ds.DomainSizes())
	if !ok {
		b.Fatal("income does not pack")
	}
	pc := NewPackedCodec(p)
	leaves := make([]uint64, ds.NumRows())
	buf := make([]int32, ds.NumDims())
	for i := range leaves {
		row, _ := ds.Row(i, buf)
		leaves[i] = pc.P.PackCodes(rule.FromTuple(row))
	}
	l, err := cube.BuildLattice(pc.PackedKeys, slices.Clone(leaves), 1<<26)
	if err != nil {
		b.Fatal(err)
	}
	sumM := make([]float64, l.NumSlots())
	count := make([]float64, l.NumSlots())
	for i, k := range leaves {
		slot, _ := l.Slot(k)
		sumM[slot] += ds.Measure[i]
		count[slot]++
	}
	l.Propagate(sumM)
	l.Propagate(count)
	sumMhat := make([]float64, l.NumSlots())
	for slot, k := range l.Keys() {
		sumMhat[slot] = sumM[slot] * (0.6 + float64(k%7)/10)
	}
	cands := SlotCandidates{Keys: l.Keys(), SumM: sumM, SumMhat: sumMhat, Count: count, Slots: l.Closed(pc.PackedKeys)}
	c := engine.NewNativeBackend(engine.Config{})
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopByGainSlots(c, cands, 1024, map[uint64]bool{})
	}
}
