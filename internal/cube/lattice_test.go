package cube

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

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
