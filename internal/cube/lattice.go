package cube

import (
	"errors"
	"fmt"
	"slices"
)

// ErrLatticeTooLarge reports a candidate space whose frozen lattice would
// exceed the caller's entry budget; the caller stays on the per-round
// pipeline (ComputeTables).
var ErrLatticeTooLarge = errors.New("cube: candidate lattice exceeds the entry budget")

// Lattice is the estimate-independent structure of the cube over one
// candidate space, built once and replayed every round. The per-round
// pipeline (ComputeTables) re-derives, by hashing, shuffling and merging,
// which candidate every leaf instance contributes to; but that wiring is a
// function of the leaf key set alone — only the Σm̂ values flowing along it
// change between rounds and queries. A Lattice freezes the wiring:
//
//   - one slot per candidate key: the leaves first, in ascending key order,
//     then each stage's newly reached ancestors in discovery order — a
//     canonical numbering, so two lattices over one leaf set are identical
//     and replays sum in one fixed order;
//   - per attribute j, in attribute order, an edge (src → dst) from every
//     slot whose key holds a constant in j to the slot of that key with j
//     wildcarded. Stages are single-attribute because then a stage's sources
//     (constant in j) and destinations (wildcard in j) are disjoint, so
//     values propagate in place, and every (leaf, ancestor) pair is joined by
//     exactly one path — the one that wildcards attributes in ascending
//     order — so each leaf is counted once per ancestor.
//
// Propagate replays a round: given a vector holding the leaves' sums it adds
// along the edges, after which every slot holds the sum over the leaves it
// generalizes — the cube's output, with no hashing, shuffle or merge. The
// same program serves Σm and the instance count at build time and Σm̂ every
// round.
//
// Closed lists the slots that are their own closure, the per-field meet of
// the leaf keys below them; on an exhaustive lattice those are exactly the
// slots no more specific slot shares its support with.
//
// A Lattice is immutable once built and safe for concurrent replays over
// distinct vectors. It costs 8 bytes per slot for the key, 8 per edge, and
// 8–16 per slot for the key index kept for Slot lookups (2–4 int32 entries
// per slot; up to 8 while the slots are fewer than twice the leaves).
// Closed's list adds 4 bytes per closed slot to whoever keeps it.
type Lattice struct {
	keys   []uint64 // slot → candidate key
	leaves int      // slots [0, leaves) are the leaves
	edges  []latticeEdge
	// index is an open-addressing table over keys holding slot numbers (-1 =
	// empty), probed with the PackedTable hash. It starts at four entries
	// per leaf and doubles whenever it passes half full, so once the slots
	// outnumber twice the leaves — on any exhaustive lattice — it ends at
	// the smallest power of two holding two entries per slot.
	index []int32
	mask  uint64
}

// latticeEdge adds slot src's value into slot dst.
type latticeEdge struct{ src, dst int32 }

// BuildLattice freezes the lattice over the given leaf keys (duplicates are
// fine; the slice is sorted in place). It fails with ErrLatticeTooLarge once
// slots plus edges pass maxEntries, and on keys with bits outside pk's
// layout.
func BuildLattice(pk PackedKeys, leaves []uint64, maxEntries int) (*Lattice, error) {
	p := pk.P
	slices.Sort(leaves)
	leaves = slices.Compact(leaves)
	if total := uint(p.TotalBits()); total < 64 && len(leaves) > 0 && leaves[len(leaves)-1]>>total != 0 {
		return nil, fmt.Errorf("cube: corrupt packed rule key %#x: bits set beyond the %d-bit layout", leaves[len(leaves)-1], total)
	}
	l := &Lattice{keys: append(make([]uint64, 0, 2*len(leaves)), leaves...), leaves: len(leaves)}
	l.reindex(4 * len(leaves))
	for j := 0; j < p.NumDims(); j++ {
		m := p.FieldMask(j)
		// Ancestors appended during this stage are wildcard in j; the bound
		// keeps them out of its sources.
		for s, n := 0, len(l.keys); s < n; s++ {
			k := l.keys[s]
			if k&m == m {
				continue
			}
			l.edges = append(l.edges, latticeEdge{src: int32(s), dst: l.slotOrAdd(k | m)})
			if len(l.keys)+len(l.edges) > maxEntries {
				return nil, ErrLatticeTooLarge
			}
		}
	}
	return l, nil
}

// pow2AtLeast is the smallest power of two ≥ n, and at least minTableCap.
func pow2AtLeast(n int) int {
	c := minTableCap
	for c < n {
		c *= 2
	}
	return c
}

// reindex rebuilds the key index with room for at least n slots.
func (l *Lattice) reindex(n int) {
	c := pow2AtLeast(n)
	l.index = make([]int32, c)
	for i := range l.index {
		l.index[i] = -1
	}
	l.mask = uint64(c - 1)
	for s, k := range l.keys {
		i := probeHash(k) & l.mask
		for l.index[i] >= 0 {
			i = (i + 1) & l.mask
		}
		l.index[i] = int32(s)
	}
}

// slotOrAdd returns k's slot, appending a new one on first sight.
func (l *Lattice) slotOrAdd(k uint64) int32 {
	i := probeHash(k) & l.mask
	for {
		s := l.index[i]
		if s < 0 {
			s = int32(len(l.keys))
			l.keys = append(l.keys, k)
			l.index[i] = s
			if 2*len(l.keys) > len(l.index) {
				l.reindex(2 * len(l.keys))
			}
			return s
		}
		if l.keys[s] == k {
			return s
		}
		i = (i + 1) & l.mask
	}
}

// Slot returns the slot of candidate key k.
func (l *Lattice) Slot(k uint64) (int32, bool) {
	i := probeHash(k) & l.mask
	for {
		s := l.index[i]
		if s < 0 {
			return 0, false
		}
		if l.keys[s] == k {
			return s, true
		}
		i = (i + 1) & l.mask
	}
}

// Keys returns the candidate key of every slot. Callers must not modify it.
func (l *Lattice) Keys() []uint64 { return l.keys }

// NumSlots returns the number of candidates.
func (l *Lattice) NumSlots() int { return len(l.keys) }

// NumEdges returns the number of additions one Propagate performs.
func (l *Lattice) NumEdges() int { return len(l.edges) }

// Closed returns, in ascending order, the slots whose key equals their
// closure: the per-field meet of the leaf keys below the slot, where a field
// on which two keys differ becomes all ones (the wildcard) and a field on
// which they agree keeps its value. The meet runs along the edges the way
// Propagate adds, so it costs one pass and no key lookups.
//
// On an exhaustive lattice — leaves are full-constant data tuples, and every
// generalization of a leaf is a slot — a slot's closure is the most specific
// slot with its support, so there is one closed slot per distinct support
// set, and every other slot covers exactly its closure's rows.
func (l *Lattice) Closed(pk PackedKeys) []int32 {
	fields := make([]uint64, pk.P.NumDims())
	for j := range fields {
		fields[j] = pk.P.FieldMask(j)
	}
	closure := make([]uint64, len(l.keys))
	copy(closure, l.keys[:l.leaves])
	// Slots past the leaves were numbered in the order the build appended
	// their first edge, so that edge is the one reaching next.
	next := int32(l.leaves)
	for _, e := range l.edges {
		c := closure[e.src]
		if e.dst == next {
			closure[e.dst] = c
			next++
			continue
		}
		acc := closure[e.dst]
		if diff := acc ^ c; diff != 0 {
			for _, m := range fields {
				if diff&m != 0 {
					acc |= m
				}
			}
			closure[e.dst] = acc
		}
	}
	var closed []int32
	for s, k := range l.keys {
		if closure[s] == k {
			closed = append(closed, int32(s))
		}
	}
	return closed
}

// Propagate turns a vector of per-leaf sums (one entry per slot, zero
// outside the leaves) into per-candidate sums, in place. Edges are stored
// stage-major, so one pass in order replays every stage.
func (l *Lattice) Propagate(v []float64) {
	v = v[:len(l.keys)]
	for _, e := range l.edges {
		v[e.dst] += v[e.src]
	}
}
