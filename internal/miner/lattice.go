package miner

import (
	"errors"
	"fmt"
	"sync"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/engine"
	"sirum/internal/metrics"
)

// candSpace is the build-once state of one candidate space: the leaf memo
// (lcaMemo) and, on packed schemas, the frozen lattice above it. A Prep
// holds one per space its queries can share; a table-rounds query with a
// sample of its own builds a private leaf memo and lattice in its first
// round; later rounds only gather. One builder at a time: concurrent first
// queries wait on mu and then replay. A Prep's schema packs or it does not,
// so a space only ever fills the fields of one kind of rounds.
type candSpace struct {
	mu      sync.Mutex
	strMemo *lcaMemo[string] // string rounds' leaf memo
	memo    *lcaMemo[uint64] // table rounds' leaf memo
	lat     *lattice         // nil until the first table round over the space
	latOff  bool             // the lattice exceeds memoMaxEntries: stay on the per-round pipeline
}

// drop releases the memo and the lattice; the next query rebuilds them.
func (sp *candSpace) drop() {
	sp.mu.Lock()
	sp.strMemo, sp.memo, sp.lat, sp.latOff = nil, nil, nil, false
	sp.mu.Unlock()
}

// lattice is everything about a candidate space's cube that does not depend
// on the estimates, frozen by the first round over the space: the wiring
// (cube.Lattice) and, per slot, Σm and the support count — already divided
// by the sample match count, which is kept so each round can apply the same
// fix-up to Σm̂. Every round of every query, the building one included, reads
// its candidates through replayRound, so they all see bit-identical
// aggregates. Immutable once published, apart from a sampled lattice's
// lazily built list of slots PruneRedundantAncestors keeps.
type lattice struct {
	*cube.Lattice
	sumM, count []float64
	match       []int32 // sample match count per slot; nil when exhaustive

	// closed lists, on an exhaustive lattice, the slots that are their own
	// closure (cube.Lattice.Closed): one per support set. Every other slot
	// covers the same rows as its closure, hence the same gain, so rounds
	// score only these; a query still counts every slot as a candidate.
	closed []int32

	// With a leaf memo the round's leaf Σm̂ are gathered straight into their
	// slots: leafSlots lists the slot of every memo key, block after block
	// (block bi's keys at leafOff[bi]:leafOff[bi+1]). The memo pointer is kept
	// beside them because they are only valid for that memo's key order.
	// Without one (the memo would pass memoMaxEntries) leaves arrive as
	// per-round tables and are looked up by key.
	memo      *lcaMemo[uint64]
	leafSlots []int32
	leafOff   []int

	keptOnce sync.Once
	kept     []int32 // a sampled lattice's slots outside redundantMask
}

// acquireLattice gives the query its space's lattice, building it on first
// use from this round's leaf tables or, when lcas is nil, from the leaf memo.
// A space past the entry budget is forgotten: the query, and every later one,
// stays on the per-round pipeline.
func (tr *tableRounds) acquireLattice(lcas *engine.PColl[*cube.PackedTable]) error {
	sp := tr.space
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.lat == nil && !sp.latOff {
		lat, err := tr.buildLattice(lcas)
		switch {
		case errors.Is(err, cube.ErrLatticeTooLarge):
			sp.latOff = true
		case err != nil:
			return err
		default:
			sp.lat = lat
		}
	}
	if tr.lat = sp.lat; tr.lat == nil {
		tr.space = nil
	}
	return nil
}

// buildLattice freezes the query's candidate space. The build stands in for
// the first round's cube and fix-up and is charged like them: the structure
// as ancestor generation (one engine task, so simulated backends price it),
// the match counts as gain computation.
func (tr *tableRounds) buildLattice(lcas *engine.PColl[*cube.PackedTable]) (*lattice, error) {
	q, pc := tr.q, tr.pc
	lat := &lattice{}
	if lcas == nil {
		lat.memo = tr.memo
	}
	err := q.timed(metrics.PhaseAncestorGen, func() (err error) {
		q.c.RunStage("cube/freeze", 1, func(int) {
			if err = lat.freeze(pc, lcas); err == nil && q.sample == nil {
				lat.closed = lat.Closed(pc.PackedKeys)
			}
		})
		return err
	})
	if err != nil || q.sample == nil {
		return lat, err
	}
	err = q.timed(metrics.PhaseGainComputing, func() (err error) {
		if lat.match, err = candgen.MatchCounts(q.c, lat.Keys(), q.sample, pc); err != nil {
			return err
		}
		for slot, mc := range lat.match {
			f := float64(mc)
			lat.sumM[slot] /= f
			lat.count[slot] /= f
		}
		return nil
	})
	return lat, err
}

// freeze builds the wiring over the leaf keys — lat.memo's, or else the leaf
// tables' — and the raw per-slot Σm and counts.
func (lat *lattice) freeze(pc candgen.PackedCodec, lcas *engine.PColl[*cube.PackedTable]) (err error) {
	memo := lat.memo
	var keys []uint64
	if memo != nil {
		for bi := range memo.blocks {
			keys = append(keys, memo.blocks[bi].keys...)
		}
	} else {
		for _, t := range lcas.Parts() {
			t.ForEach(func(k uint64, _ cube.Agg) { keys = append(keys, k) })
		}
	}
	if lat.Lattice, err = cube.BuildLattice(pc.PackedKeys, keys, memoMaxEntries); err != nil {
		return err
	}
	// Leaf Σm and counts land on their slots block by block — a fixed order
	// whatever order a block lists its keys in — then flow up the lattice
	// like any round's Σm̂.
	lat.sumM = make([]float64, lat.NumSlots())
	lat.count = make([]float64, lat.NumSlots())
	addLeaf := func(k uint64, sumM, count float64) int32 {
		slot, _ := lat.Slot(k) // every leaf key was just built in
		lat.sumM[slot] += sumM
		lat.count[slot] += count
		return slot
	}
	if memo != nil {
		lat.leafOff = make([]int, 1, len(memo.blocks)+1)
		for bi := range memo.blocks {
			mb := &memo.blocks[bi]
			for ki, k := range mb.keys {
				lat.leafSlots = append(lat.leafSlots, addLeaf(k, mb.sumM[ki], mb.count[ki]))
			}
			lat.leafOff = append(lat.leafOff, len(lat.leafSlots))
		}
	} else {
		for _, t := range lcas.Parts() {
			t.ForEach(func(k uint64, a cube.Agg) { addLeaf(k, a.SumM, a.Count) })
		}
	}
	lat.Propagate(lat.sumM)
	lat.Propagate(lat.count)
	return nil
}

// redundantMask marks candidates with the same support count as one of their
// children. On an exhaustive lattice a child's rows are a subset of its
// parent's, so that marks exactly the slots outside closed; on a sampled one
// counts are divided by match counts and an equal count proves nothing, but
// PruneRedundantAncestors drops them all the same (Chapter 7).
func (lat *lattice) redundantMask(pc candgen.PackedCodec) []bool {
	redundant := make([]bool, lat.NumSlots())
	for slot, k := range lat.Keys() {
		for j := 0; j < pc.NumDims(); j++ {
			m := pc.P.FieldMask(j)
			if k&m == m {
				continue
			}
			if parent, ok := lat.Slot(k | m); ok && lat.count[parent] == lat.count[slot] {
				redundant[parent] = true
			}
		}
	}
	return redundant
}

// scored returns the slots a round scores — nil for all of them — and how
// many candidates it counts: every slot, or with PruneRedundantAncestors
// only the scored ones. An exhaustive lattice always scores its closed
// slots; a sampled one, with the option, those outside redundantMask,
// listed by the first query that asks.
func (lat *lattice) scored(pc candgen.PackedCodec, prune bool) ([]int32, int) {
	slots := lat.closed
	if lat.match != nil && prune {
		lat.keptOnce.Do(func() {
			for slot, r := range lat.redundantMask(pc) {
				if !r {
					lat.kept = append(lat.kept, int32(slot))
				}
			}
		})
		slots = lat.kept
	}
	if prune {
		return slots, len(slots)
	}
	return slots, lat.NumSlots()
}

// replayRound is one rule-generation round over the frozen lattice: gather
// the leaves' Σm̂ (candidate pruning), add along the edges (ancestor
// generation), divide by the match counts (gain computation). lcas carries
// the round's leaf tables when the lattice has no leaf memo; they are
// consumed. The result views the lattice's arrays and the query's vector —
// nothing to release.
func (tr *tableRounds) replayRound(lcas *engine.PColl[*cube.PackedTable]) (candgen.SlotCandidates, int64, error) {
	q, lat := tr.q, tr.lat
	n := lat.NumSlots()
	if tr.sumMhat == nil {
		tr.sumMhat = engine.BorrowColumn(q.c, n)
	}
	vec := tr.sumMhat
	err := q.timed(metrics.PhaseCandPruning, func() error {
		clear(vec)
		if lcas == nil {
			return tr.gatherMemoLeaves(vec)
		}
		defer cube.ReleaseTables(q.c, lcas)
		missing := false
		for _, t := range lcas.Parts() {
			t.ForEach(func(k uint64, a cube.Agg) {
				if slot, ok := lat.Slot(k); ok {
					vec[slot] += a.SumMhat
				} else {
					missing = true
				}
			})
		}
		if missing {
			return fmt.Errorf("miner: internal: leaf key outside the frozen lattice")
		}
		return nil
	})
	if err != nil {
		return candgen.SlotCandidates{}, 0, err
	}
	_ = q.timed(metrics.PhaseAncestorGen, func() error {
		q.c.RunStage("cube/replay", 1, func(int) { lat.Propagate(vec) })
		// A replayed edge is one emission.
		q.c.Reg().Add(metrics.CtrPairsEmitted, int64(lat.NumEdges()))
		return nil
	})
	cands := candgen.SlotCandidates{Keys: lat.Keys(), SumM: lat.sumM, SumMhat: vec, Count: lat.count}
	_ = q.timed(metrics.PhaseGainComputing, func() error {
		if lat.match != nil {
			q.c.RunStage("candgen/adjust", 1, func(int) {
				for slot, mc := range lat.match {
					vec[slot] /= float64(mc)
				}
			})
		}
		cands.Slots, n = lat.scored(tr.pc, q.opt.PruneRedundantAncestors)
		return nil
	})
	return cands, int64(n), nil
}

// gatherMemoLeaves sums this query's estimates over each memoized leaf's
// rows — in parallel per block into a scratch column, then onto the leaf
// slots block by block, so a slot fed from several blocks always adds them
// in one order.
func (tr *tableRounds) gatherMemoLeaves(vec []float64) error {
	q, lat := tr.q, tr.lat
	if tr.leafMhat == nil {
		tr.leafMhat = engine.BorrowColumn(q.c, len(lat.leafSlots))
	}
	partial := tr.leafMhat
	err := q.data.Scan("miner/lca-replay", false, func(bi int, b *engine.TupleBlock) {
		mb := &lat.memo.blocks[bi]
		out := partial[lat.leafOff[bi]:lat.leafOff[bi+1]]
		for ki := range out {
			out[ki] = mb.sumMhat(ki, b.Mhat)
		}
	})
	if err != nil {
		return err
	}
	for i, slot := range lat.leafSlots {
		vec[slot] += partial[i]
	}
	return nil
}
