package miner

import (
	"time"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// stringRounds is rule generation over string keys, for schemas too wide to
// pack: every round recomputes the cube over per-partition Go maps
// (candgen.LCAParts or ExhaustiveParts, cube.Compute, the sample fix-up,
// top-k by gain). Across rounds and queries it reuses only the leaf memo.
type stringRounds struct {
	q        *query
	codec    candgen.StringCodec
	memo     *lcaMemo[string] // non-nil when cross-iteration LCA reuse applies
	selected map[string]bool
}

func newStringRounds(q *query) (*stringRounds, error) {
	sr := &stringRounds{q: q, codec: candgen.NewStringCodec(q.p.ds.NumDims()), selected: map[string]bool{}}
	sp := q.p.sharedSpace(q.sample)
	var err error
	if sp != nil {
		sr.memo, err = memoFor(q, sp, &sp.strMemo, sr.codec.ForEachLeafKey)
	}
	return sr, err
}

func (sr *stringRounds) markSelected(r rule.Rule) error {
	sr.selected[r.Key()] = true
	return nil
}

func (sr *stringRounds) round(l int) ([]pick, int64, error) {
	q := sr.q
	cands, n, err := sr.generate()
	if err != nil {
		return nil, 0, err
	}
	var picked []pick
	err = q.timed(metrics.PhaseRuleSelection, func() (err error) {
		pool := candgen.TopByGain(q.c, cands, q.opt.TopPoolSize, sr.selected)
		picked, err = selectRules(q.opt, pool, n, l, sr.codec.DecodeRule)
		return err
	})
	return picked, n, err
}

// generate runs one round's rule generation: candidate pruning (LCA
// computation), ancestor generation (the cube), gain-input preparation (the
// sample fix-up). Phases are timed separately to reproduce Figure 3.2.
func (sr *stringRounds) generate() (*engine.PColl[map[string]cube.Agg], int64, error) {
	q := sr.q
	wallStart := time.Now()
	simStart := q.c.SimTime()
	var lcas *engine.PColl[map[string]cube.Agg]
	err := q.timed(metrics.PhaseCandPruning, func() (err error) {
		switch {
		case sr.memo != nil:
			// Prepared fast path: the candidate keys, support sums and row
			// coverage are Mhat-independent, so only the estimate sums are
			// recomputed from this query's fork.
			lcas, err = memoStringParts(sr.memo, q.c, q.data)
		case q.sample != nil:
			if q.opt.useShuffleJoin() {
				q.c.Repartition(q.p.dataBytes, 0)
			}
			lcas, err = candgen.LCAParts(q.c, q.data, q.sample, q.opt.useIndex(), q.index)
		default:
			lcas, err = candgen.ExhaustiveParts(q.c, q.data)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	var cands *engine.PColl[map[string]cube.Agg]
	err = q.timed(metrics.PhaseAncestorGen, func() (err error) {
		cands, err = cube.Compute(q.c, lcas, sr.codec.D, q.groups)
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	err = q.timed(metrics.PhaseGainComputing, func() (err error) {
		if q.sample != nil {
			if cands, err = candgen.AdjustForSample(q.c, cands, q.sample, sr.codec); err != nil {
				return err
			}
		}
		if q.opt.PruneRedundantAncestors {
			cands, err = sr.pruneRedundant(cands)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	n := cube.CountCandidates(q.c, cands)
	q.endRuleGen(n, wallStart, simStart)
	return cands, n, nil
}

// pruneRedundant drops the round's redundant ancestors (see redundantKeys).
func (sr *stringRounds) pruneRedundant(cands *engine.PColl[map[string]cube.Agg]) (*engine.PColl[map[string]cube.Agg], error) {
	// The check needs parent lookups across partitions, so gather the
	// counts first (keys only — small relative to full aggregates).
	counts := make(map[string]float64)
	for _, part := range cands.Parts() {
		for k, agg := range part {
			counts[k] = agg.Count
		}
	}
	redundant, err := redundantKeys(counts, sr.codec.D, sr.codec.DecodeRule, sr.codec.EncodeRule)
	if err != nil || len(redundant) == 0 {
		return cands, err
	}
	return engine.MapParts(sr.q.c, cands, "miner/prune-redundant", func(_ int, part map[string]cube.Agg) map[string]cube.Agg {
		out := make(map[string]cube.Agg, len(part))
		for k, v := range part {
			if !redundant[k] {
				out[k] = v
			}
		}
		return out
	}), nil
}
