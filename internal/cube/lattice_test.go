package cube

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/rule"
)

// replayAggs pushes the instances' three aggregates through the lattice the
// way a round does: leaf sums onto their slots, then Propagate.
func replayAggs(t *testing.T, l *Lattice, in []map[uint64]Agg) map[uint64]Agg {
	t.Helper()
	sumM := make([]float64, l.NumSlots())
	sumMhat := make([]float64, l.NumSlots())
	count := make([]float64, l.NumSlots())
	for _, part := range in {
		for k, a := range part {
			slot, ok := l.Slot(k)
			if !ok {
				t.Fatalf("leaf %#x has no slot", k)
			}
			sumM[slot] += a.SumM
			sumMhat[slot] += a.SumMhat
			count[slot] += a.Count
		}
	}
	l.Propagate(sumM)
	l.Propagate(sumMhat)
	l.Propagate(count)
	out := make(map[uint64]Agg, l.NumSlots())
	for slot, k := range l.Keys() {
		if _, dup := out[k]; dup {
			t.Fatalf("key %#x holds two slots", k)
		}
		out[k] = Agg{SumM: sumM[slot], SumMhat: sumMhat[slot], Count: count[slot]}
	}
	return out
}

func leafKeys(in []map[uint64]Agg) []uint64 {
	var keys []uint64
	for _, part := range in {
		for k := range part {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestQuickLatticeMatchesComputeTables is the lattice's defining property:
// over random schemas and leaf sets — leaves with wildcards of their own, so
// some leaves generalize others, and leaves repeated across partitions — one
// replay yields exactly the candidate set of the per-round pipeline with the
// same aggregates, whatever column grouping that pipeline uses.
func TestQuickLatticeMatchesComputeTables(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := r.Intn(5) + 1
		doms := make([]int, d)
		for j := range doms {
			doms[j] = r.Intn(6) + 1
		}
		p, ok := rule.NewPacker(doms)
		if !ok {
			t.Fatal("packer")
		}
		in := []map[uint64]Agg{{}, {}, {}}
		ru := make(rule.Rule, d)
		for i, n := 0, r.Intn(40)+1; i < n; i++ {
			for j := range ru {
				if r.Intn(4) == 0 {
					ru[j] = rule.Wildcard
				} else {
					ru[j] = r.Int31n(int32(doms[j]))
				}
			}
			k := p.PackCodes(ru)
			part := in[r.Intn(len(in))]
			part[k] = Merge(part[k], Agg{SumM: r.Float64() * 100, SumMhat: r.Float64() * 100, Count: 1})
		}
		c := newTestCluster()
		tables, err := ComputeTables(c, engine.NewPColl(tablesFromMaps(in)), PackedKeys{P: p}, SplitGroups(d, r.Intn(d)+1))
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]Agg)
		for _, part := range tables.Parts() {
			part.ForEach(func(k uint64, a Agg) { want[k] = a })
		}
		c.Close()

		l, err := BuildLattice(PackedKeys{P: p}, leafKeys(in), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		sameAggMaps(t, "replay", want, replayAggs(t, l, in))
	}
}

// TestLatticeCanonical: the numbering depends on the leaf key set alone, not
// on the order or multiplicity the leaves arrive in — which is what lets the
// query that builds a lattice and the queries of another session over the
// same data sum in the same order.
func TestLatticeCanonical(t *testing.T) {
	pk := PackedKeys{P: flightsPacker(t)}
	keys := leafKeys(packedTupleInstances(t, 3))
	a, err := BuildLattice(pk, slices.Clone(keys), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append(slices.Clone(keys), keys[:len(keys)/2]...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b, err := BuildLattice(pk, shuffled, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.keys, b.keys) || !slices.Equal(a.edges, b.edges) {
		t.Fatal("lattices over one leaf set differ")
	}
	if a.NumEdges() == 0 || a.NumSlots() <= len(keys) {
		t.Fatalf("degenerate lattice: %d slots, %d edges over %d leaves", a.NumSlots(), a.NumEdges(), len(keys))
	}
	if _, ok := a.Slot(pk.P.AllWildcards()); !ok {
		t.Error("the all-wildcards rule is not a candidate")
	}
}

// TestLatticeBounds: the entry budget counts slots plus edges and trips
// before the structure is finished; keys outside the packer's layout are
// rejected as on the per-round path; no leaves is no candidates.
func TestLatticeBounds(t *testing.T) {
	pk := PackedKeys{P: flightsPacker(t)}
	keys := leafKeys(packedTupleInstances(t, 1))
	full, err := BuildLattice(pk, slices.Clone(keys), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	size := full.NumSlots() + full.NumEdges()
	if _, err := BuildLattice(pk, slices.Clone(keys), size); err != nil {
		t.Errorf("budget of exactly %d entries: %v", size, err)
	}
	if _, err := BuildLattice(pk, slices.Clone(keys), size-1); !errors.Is(err, ErrLatticeTooLarge) {
		t.Errorf("budget one short: err = %v, want ErrLatticeTooLarge", err)
	}
	if _, err := BuildLattice(pk, []uint64{keys[0], 1 << 63}, 1<<20); err == nil || errors.Is(err, ErrLatticeTooLarge) {
		t.Errorf("corrupt key: err = %v", err)
	}
	empty, err := BuildLattice(pk, nil, 1<<20)
	if err != nil || empty.NumSlots() != 0 || empty.NumEdges() != 0 {
		t.Errorf("empty lattice: %v, %d slots", err, empty.NumSlots())
	}
	if _, ok := empty.Slot(keys[0]); ok {
		t.Error("empty lattice resolved a key")
	}
}

// TestLatticeReplayAllocs pins the replay's allocation contract: a warm
// round — clear the vector, set the leaf sums, propagate — allocates nothing.
func TestLatticeReplayAllocs(t *testing.T) {
	in := packedTupleInstances(t, 1)
	l, err := BuildLattice(PackedKeys{P: flightsPacker(t)}, leafKeys(in), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	type leaf struct {
		slot int32
		v    float64
	}
	var leaves []leaf
	for k, a := range in[0] {
		slot, _ := l.Slot(k)
		leaves = append(leaves, leaf{slot, a.SumMhat})
	}
	vec := make([]float64, l.NumSlots())
	got := testing.AllocsPerRun(50, func() {
		clear(vec)
		for _, lf := range leaves {
			vec[lf.slot] += lf.v
		}
		l.Propagate(vec)
	})
	if got != 0 {
		t.Errorf("warm replay round allocates %v objects/op, want 0", got)
	}
	if all, _ := l.Slot(l.keys[len(l.keys)-1]); vec[all] == 0 {
		t.Error("replay left the last slot empty")
	}
}

// closedByBruteForce is Closed's oracle: each slot's closure is the meet of
// every leaf key it generalizes, found by testing every leaf.
func closedByBruteForce(p *rule.Packer, l *Lattice, leaves []uint64) []int32 {
	var closed []int32
	for s, k := range l.Keys() {
		var meet uint64
		first := true
		for _, leaf := range leaves {
			below := true
			for j := 0; j < p.NumDims(); j++ {
				if m := p.FieldMask(j); k&m != m && k&m != leaf&m {
					below = false
					break
				}
			}
			if !below {
				continue
			}
			if first {
				meet, first = leaf, false
				continue
			}
			for j := 0; j < p.NumDims(); j++ {
				if m := p.FieldMask(j); meet&m != leaf&m {
					meet |= m
				}
			}
		}
		if !first && meet == k {
			closed = append(closed, int32(s))
		}
	}
	return closed
}

// TestQuickLatticeClosedMatchesBruteForce holds the one-pass meet to the
// per-slot definition over random schemas, on exhaustive leaf sets and on
// leaves with wildcards of their own. On the exhaustive ones it also holds
// the meaning: a slot is closed exactly when no slot one attribute more
// specific covers as many leaves. And it checks the key index: the smallest
// power of two holding four entries per leaf and two per slot, and it finds
// every key.
func TestQuickLatticeClosedMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		exhaustive := seed%2 == 0
		d := r.Intn(5) + 1
		doms := make([]int, d)
		for j := range doms {
			doms[j] = r.Intn(5) + 1
		}
		p, ok := rule.NewPacker(doms)
		if !ok {
			t.Fatal("packer")
		}
		var leaves []uint64
		ru := make(rule.Rule, d)
		for i, n := 0, r.Intn(40)+1; i < n; i++ {
			for j := range ru {
				if !exhaustive && r.Intn(4) == 0 {
					ru[j] = rule.Wildcard
				} else {
					ru[j] = r.Int31n(int32(doms[j]))
				}
			}
			leaves = append(leaves, p.PackCodes(ru))
		}
		l, err := BuildLattice(PackedKeys{P: p}, slices.Clone(leaves), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got := l.Closed(PackedKeys{P: p})
		if want := closedByBruteForce(p, l, leaves); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Closed = %v, brute force = %v", seed, got, want)
		}
		if exhaustive {
			count := make([]float64, l.NumSlots())
			for s := 0; s < l.leaves; s++ {
				count[s] = 1
			}
			l.Propagate(count)
			var open []int32
		slots:
			for s, k := range l.Keys() {
				for j := 0; j < d; j++ {
					if !p.IsWildcard(k, j) {
						continue
					}
					for v := 0; v < doms[j]; v++ {
						if child, ok := l.Slot(p.Set(k, j, int32(v))); ok && count[child] == count[s] {
							open = append(open, int32(s))
							continue slots
						}
					}
				}
			}
			for _, s := range open {
				if _, found := slices.BinarySearch(got, s); found {
					t.Fatalf("seed %d: slot %d is closed but a child covers as many leaves", seed, s)
				}
			}
			if len(open)+len(got) != l.NumSlots() {
				t.Fatalf("seed %d: %d open + %d closed slots of %d", seed, len(open), len(got), l.NumSlots())
			}
		}
		if n := len(l.index); n != pow2AtLeast(max(4*l.leaves, 2*l.NumSlots())) {
			t.Fatalf("seed %d: %d index entries for %d slots", seed, n, l.NumSlots())
		}
		for s, k := range l.Keys() {
			if got, ok := l.Slot(k); !ok || got != int32(s) {
				t.Fatalf("seed %d: Slot(%#x) = %d, %v; want %d", seed, k, got, ok, s)
			}
		}
	}
}

// TestLatticeClosedBelowHighestWildcard: over rows (a, b, c) = (0, 0, 0),
// (0, 0, 1), (1, 1, 0), the slot (*, 0, *) covers only rows with a = 0, so
// its closure is (0, 0, *). The two differ in a, below the slot's highest
// wildcard c, and no edge joins them: every edge into (*, 0, *) comes from
// a child (*, 0, v), which covers fewer rows. A test of equal counts along
// the edges would call (*, 0, *) closed.
func TestLatticeClosedBelowHighestWildcard(t *testing.T) {
	p, ok := rule.NewPacker([]int{2, 2, 2})
	if !ok {
		t.Fatal("packer")
	}
	W := rule.Wildcard
	key := func(a, b, c int32) uint64 { return p.PackCodes(rule.Rule{a, b, c}) }
	l, err := BuildLattice(PackedKeys{P: p}, []uint64{key(0, 0, 0), key(0, 0, 1), key(1, 1, 0)}, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	open, _ := l.Slot(key(W, 0, W))
	closure, _ := l.Slot(key(0, 0, W))
	for _, e := range l.edges {
		if e.dst == open && e.src == closure {
			t.Fatal("an edge joins the slot to its closure; the case tests nothing")
		}
	}
	closed := l.Closed(PackedKeys{P: p})
	isClosed := func(s int32) bool { _, found := slices.BinarySearch(closed, s); return found }
	if isClosed(open) || !isClosed(closure) {
		t.Errorf("(*,0,*) closed = %v, (0,0,*) closed = %v; want false, true", isClosed(open), isClosed(closure))
	}
	// Distinct support sets: {r0,r1,r2} (*,*,*); {r0,r1} (0,0,*); {r2}
	// (1,1,0); {r0} (0,0,0); {r1} (0,0,1); {r0,r2} (*,*,0).
	want := []uint64{key(W, W, W), key(0, 0, W), key(1, 1, 0), key(0, 0, 0), key(0, 0, 1), key(W, W, 0)}
	var got []uint64
	for _, s := range closed {
		got = append(got, l.Keys()[s])
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("closed keys %x, want %x", got, want)
	}
}

// BenchmarkLatticeClosed is the meet pass over the exhaustive lattice of
// income/3000: what freezing an exploration space adds to find the slots a
// round scores.
func BenchmarkLatticeClosed(b *testing.B) {
	ds := datagen.Income(3000, 1)
	p, ok := rule.NewPacker(ds.DomainSizes())
	if !ok {
		b.Fatal("income does not pack")
	}
	leaves := make([]uint64, ds.NumRows())
	buf := make([]int32, ds.NumDims())
	for i := range leaves {
		row, _ := ds.Row(i, buf)
		leaves[i] = p.PackCodes(rule.FromTuple(row))
	}
	l, err := BuildLattice(PackedKeys{P: p}, leaves, 1<<26)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var closed []int32
	for i := 0; i < b.N; i++ {
		closed = l.Closed(PackedKeys{P: p})
	}
	b.ReportMetric(float64(l.NumSlots()), "slots")
	b.ReportMetric(float64(len(closed)), "closed")
}
