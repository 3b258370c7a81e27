package miner

import (
	"time"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// tableRounds is rule generation over packed single-word keys. With a frozen
// lattice (see lattice) a round only gathers the leaves' Σm̂ and replays the
// edges; the round that finds the lattice missing builds it first and then
// reads its own candidates through the same replay. Otherwise — reuse
// disabled, or a lattice past memoMaxEntries — it runs the per-round pipeline
// over arena-recycled flat tables: leaf instances (memoized, LCA or
// exhaustive) land in borrowed PackedTables, the cube runs table-native
// (cube.ComputeTables), and the sample fix-up mutates aggregates in place.
// Each intermediate collection is released the moment it is consumed, so a
// query's iterations cycle the same backing arrays through the arena instead
// of allocating the candidate universe per stage.
type tableRounds struct {
	q        *query
	pc       candgen.PackedCodec
	memo     *lcaMemo[uint64] // non-nil when cross-iteration LCA reuse applies
	selected map[uint64]bool

	// Lattice replay. space is where the query's lattice comes from — a
	// shared space of the Prep, or a private one for a sample of the query's
	// own — and nil when it mines without one. The two vectors are borrowed
	// from the scope's arena on first use and live for the query.
	space    *candSpace
	lat      *lattice
	sumMhat  []float64 // per lattice slot: this round's Σm̂
	leafMhat []float64 // per memo leaf key: this round's per-block Σm̂
}

func newTableRounds(q *query) (*tableRounds, error) {
	tr := &tableRounds{q: q, pc: candgen.NewPackedCodec(q.p.packer), selected: map[uint64]bool{}}
	tr.space = q.p.sharedSpace(q.sample)
	if tr.space != nil {
		var err error
		if tr.memo, err = memoFor(q, tr.space, &tr.space.memo, tr.pc.ForEachLeafKey); err != nil {
			return nil, err
		}
	} else if !q.p.opt.DisableLCAMemo {
		tr.space = new(candSpace) // the query's own sample: freeze in round 1, replay after
	}
	return tr, nil
}

func (tr *tableRounds) markSelected(r rule.Rule) error {
	k, err := tr.pc.EncodeRule(r)
	if err != nil {
		return err
	}
	tr.selected[k] = true
	return nil
}

func (tr *tableRounds) round(l int) ([]pick, int64, error) {
	q := tr.q
	wallStart := time.Now()
	simStart := engine.SimTime(q.c)
	lcas, err := tr.leaves()
	if err != nil {
		return nil, 0, err
	}
	// A replayed round's candidates are views of the lattice's arrays and the
	// query's vector; a computed round's are tables, which go back to the
	// arena once scored (picks are value copies) so the next iteration reuses
	// their backing arrays.
	var n int64
	var topK func() []candgen.Candidate[uint64]
	if tr.lat != nil {
		var slots candgen.SlotCandidates
		if slots, n, err = tr.replayRound(lcas); err != nil {
			return nil, 0, err
		}
		topK = func() []candgen.Candidate[uint64] {
			return candgen.TopByGainSlots(q.c, slots, q.opt.TopPoolSize, tr.selected)
		}
	} else {
		var tables *engine.PColl[*cube.PackedTable]
		if tables, n, err = tr.computeRound(lcas); err != nil {
			return nil, 0, err
		}
		defer cube.ReleaseTables(q.c, tables)
		topK = func() []candgen.Candidate[uint64] {
			return candgen.TopByGainTables(q.c, tables, q.opt.TopPoolSize, tr.selected)
		}
	}
	q.endRuleGen(n, wallStart, simStart)
	var picked []pick
	err = q.timed(metrics.PhaseRuleSelection, func() (err error) {
		picked, err = selectRules(q.opt, topK(), n, l, tr.pc.DecodeRule)
		return err
	})
	return picked, n, err
}

// leaves gives the round its lattice, if the space admits one, and returns
// the round's leaf tables — nil when the lattice gathers them from the memo
// instead. The caller hands them to replayRound or computeRound, which
// consume them.
func (tr *tableRounds) leaves() (*engine.PColl[*cube.PackedTable], error) {
	q := tr.q
	if tr.lat == nil && tr.space != nil && tr.memo != nil {
		if err := tr.acquireLattice(nil); err != nil {
			return nil, err
		}
	}
	if tr.lat != nil && tr.lat.memo != nil {
		return nil, nil
	}
	var lcas *engine.PColl[*cube.PackedTable]
	err := q.timed(metrics.PhaseCandPruning, func() (err error) {
		switch {
		case tr.memo != nil:
			// The candidate keys, support sums and row coverage are
			// Mhat-independent, so only the estimate sums are recomputed
			// from this query's fork.
			lcas, err = memoTableParts(tr.memo, q.c, q.data)
		case q.sample != nil:
			if q.opt.useShuffleJoin() {
				// Naive SIRUM repartitions D to co-partition the join.
				q.c.Reg().Add(metrics.CtrShuffleBytes, q.p.dataBytes)
			}
			lcas, err = tr.pc.LCATables(q.c, q.data, q.sample, q.opt.useIndex(), q.index)
		default:
			lcas, err = tr.pc.ExhaustiveTables(q.c, q.data)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if tr.lat == nil && tr.space != nil {
		if err := tr.acquireLattice(lcas); err != nil {
			cube.ReleaseTables(q.c, lcas)
			return nil, err
		}
	}
	return lcas, nil
}

// computeRound is the per-round cube and fix-up over this round's leaf
// tables, which it consumes. The caller releases the returned candidates.
func (tr *tableRounds) computeRound(lcas *engine.PColl[*cube.PackedTable]) (*engine.PColl[*cube.PackedTable], int64, error) {
	q := tr.q
	var cands *engine.PColl[*cube.PackedTable]
	err := q.timed(metrics.PhaseAncestorGen, func() (err error) {
		cands, err = cube.ComputeTables(q.c, lcas, tr.pc.PackedKeys, q.groups)
		return err
	})
	// The leaf tables are consumed by the cube's round-0 shuffle; recycle
	// them before the fix-up borrows more.
	cube.ReleaseTables(q.c, lcas)
	if err != nil {
		return nil, 0, err
	}

	err = q.timed(metrics.PhaseGainComputing, func() (err error) {
		if q.sample != nil {
			if err := candgen.AdjustTablesForSample(q.c, cands, q.sample, tr.pc); err != nil {
				return err
			}
		}
		if q.opt.PruneRedundantAncestors {
			cands, err = tr.pruneRedundant(cands)
		}
		return err
	})
	if err != nil {
		cube.ReleaseTables(q.c, cands)
		return nil, 0, err
	}
	return cands, cube.CountTableCandidates(q.c, cands), nil
}

// pruneRedundant drops the round's redundant ancestors (see redundantKeys):
// survivors are copied into fresh borrowed tables and the originals recycled.
// On error the candidates are returned untouched, still the caller's.
func (tr *tableRounds) pruneRedundant(cands *engine.PColl[*cube.PackedTable]) (*engine.PColl[*cube.PackedTable], error) {
	c := tr.q.c
	counts := make(map[uint64]float64)
	for _, part := range cands.Parts() {
		part.ForEach(func(k uint64, agg cube.Agg) { counts[k] = agg.Count })
	}
	redundant, err := redundantKeys(counts, tr.pc.NumDims(), tr.pc.DecodeRule, tr.pc.EncodeRule)
	if err != nil || len(redundant) == 0 {
		return cands, err
	}
	out := engine.MapParts(c, cands, "miner/prune-redundant", func(_ int, part *cube.PackedTable) *cube.PackedTable {
		kept := cube.BorrowTable(c, part.Len())
		part.ForEach(func(k uint64, v cube.Agg) {
			if !redundant[k] {
				kept.Add(k, v)
			}
		})
		return kept
	})
	cube.ReleaseTables(c, cands)
	return out, nil
}
