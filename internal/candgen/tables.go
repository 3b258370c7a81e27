package candgen

import (
	"fmt"

	"sirum/internal/cube"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// This file is the packed-key pipeline: the same leaf-instance scans, fix-up
// and top-k as the string pipeline of candgen.go, but producing and consuming
// arena-recycled cube.PackedTables so a session's steady-state rounds stop
// allocating — plus the flat per-slot form (MatchCounts, SlotCandidates,
// TopByGainSlots) that rounds replayed over a frozen cube.Lattice read. The
// equivalence tests hold the tables to the string pipeline, and the miner's
// lattice suites hold the replay to the tables.

// ExhaustiveTables is ExhaustiveParts into borrowed tables: every data tuple
// becomes a full-constant rule instance.
func (c PackedCodec) ExhaustiveTables(b engine.Backend, data *engine.CachedData) (*engine.PColl[*cube.PackedTable], error) {
	out := make([]*cube.PackedTable, data.NumBlocks())
	err := data.Scan("candgen/exhaustive", false, func(bi int, blk *engine.TupleBlock) {
		local := cube.BorrowTable(b, blk.NumRows())
		c.ForEachLeafKey(blk, nil, nil, leafAdder(blk, local))
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}

// LCATables is LCAParts into borrowed tables: the locally combined LCA
// aggregates of every (sample tuple, data tuple) pair, one table per block.
func (c PackedCodec) LCATables(b engine.Backend, data *engine.CachedData, s *Sample, indexed bool, ix *InvertedIndex) (*engine.PColl[*cube.PackedTable], error) {
	if s.Size() == 0 {
		return nil, fmt.Errorf("candgen: empty sample")
	}
	if indexed {
		if ix == nil {
			ix = BuildIndex(s)
		}
		b.Reg().Add(metrics.CtrBroadcastBytes, ix.Bytes()+s.Bytes())
	} else {
		b.Reg().Add(metrics.CtrBroadcastBytes, s.Bytes())
	}
	p := c.P
	out := make([]*cube.PackedTable, data.NumBlocks())
	comparisons := make([]int64, data.NumBlocks())
	err := data.Scan("candgen/lca", false, func(bi int, blk *engine.TupleBlock) {
		local := cube.BorrowTable(b, blk.NumRows())
		if indexed {
			comparisons[bi] = c.ForEachLeafKey(blk, s, ix, leafAdder(blk, local))
		} else {
			comparisons[bi] = lcaNaiveTable(blk, s, p, local)
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range comparisons {
		total += n
	}
	b.Reg().Add(metrics.CtrLCAComparisons, total)
	return engine.NewPColl(out), nil
}

func lcaNaiveTable(b *engine.TupleBlock, s *Sample, p *rule.Packer, local *cube.PackedTable) int64 {
	d := len(b.Dims)
	lca := make(rule.Rule, d)
	var comps int64
	for i := 0; i < b.NumRows(); i++ {
		agg := cube.Agg{SumM: b.M[i], SumMhat: b.Mhat[i], Count: 1}
		for _, srow := range s.Rows {
			for j := 0; j < d; j++ {
				if srow[j] == b.Dims[j][i] {
					lca[j] = srow[j]
				} else {
					lca[j] = rule.Wildcard
				}
			}
			comps += int64(d)
			local.Add(p.PackCodes(lca), agg)
		}
	}
	return comps
}

// leafAdder adds each leaf instance ForEachLeafKey enumerates over blk to
// local, carrying its row's (t[m], t[m̂], 1).
func leafAdder(blk *engine.TupleBlock, local *cube.PackedTable) func(int, []uint64) {
	return func(i int, keys []uint64) {
		agg := cube.Agg{SumM: blk.M[i], SumMhat: blk.Mhat[i], Count: 1}
		for _, k := range keys {
			local.Add(k, agg)
		}
	}
}

// matchCount decodes key into buf (returned, possibly regrown) and counts the
// sample tuples it covers. Zero cannot happen — every candidate generalizes
// an LCA, hence a sample tuple — so it is reported as corruption.
func matchCount(s *Sample, codec PackedCodec, key uint64, buf rule.Rule) (int, rule.Rule, error) {
	r, err := codec.DecodeRule(key, buf)
	if err != nil {
		return 0, buf, fmt.Errorf("candgen: corrupt candidate key: %w", err)
	}
	mc := s.MatchCount(r)
	if mc == 0 {
		return 0, r, fmt.Errorf("candgen: candidate %v covers no sample tuple", r.Clone())
	}
	return mc, r, nil
}

// AdjustTablesForSample applies the Section 3.1.1 fix-up in place: each
// candidate's aggregates are divided by its sample match count through the
// tables' mutable walk — no rebuilt collection, unlike the string pipeline.
func AdjustTablesForSample(c engine.Backend, candidates *engine.PColl[*cube.PackedTable], s *Sample, codec PackedCodec) error {
	c.Reg().Add(metrics.CtrBroadcastBytes, s.Bytes())
	errs := make([]error, candidates.NumParts())
	c.RunStage("candgen/adjust", candidates.NumParts(), func(i int) {
		buf := make(rule.Rule, codec.NumDims())
		candidates.Part(i).ForEachPtr(func(key uint64, agg *cube.Agg) bool {
			var mc int
			if mc, buf, errs[i] = matchCount(s, codec, key, buf); errs[i] != nil {
				return false
			}
			f := float64(mc)
			agg.SumM /= f
			agg.SumMhat /= f
			agg.Count /= f
			return true
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TopByGainTables is TopByGain over table partitions: per-partition min-heaps
// merged at the driver, identical scoring, exclusion and tie-break semantics.
func TopByGainTables(c engine.Backend, candidates *engine.PColl[*cube.PackedTable], n int, exclude map[uint64]bool) []Candidate[uint64] {
	if n <= 0 {
		return nil
	}
	tops := engine.MapParts(c, candidates, "candgen/topk", func(_ int, part *cube.PackedTable) []Candidate[uint64] {
		h := make(candHeap[uint64], 0, n+1)
		part.ForEach(func(key uint64, agg cube.Agg) {
			if !exclude[key] {
				h.consider(n, key, agg)
			}
		})
		return h.sorted()
	})
	return mergeTopK(tops.Parts(), n)
}

// MatchCounts returns, per candidate key, the number of sample tuples the
// candidate covers — the divisor of the Section 3.1.1 fix-up. It depends on
// the keys and the sample alone, so a frozen lattice computes it once where
// AdjustTablesForSample recomputes it every round.
func MatchCounts(c engine.Backend, keys []uint64, s *Sample, codec PackedCodec) ([]int32, error) {
	c.Reg().Add(metrics.CtrBroadcastBytes, s.Bytes())
	out := make([]int32, len(keys))
	parts := c.Config().Partitions
	errs := make([]error, parts)
	c.RunStage("candgen/adjust", parts, func(i int) {
		buf := make(rule.Rule, codec.NumDims())
		lo, hi := engine.SplitRange(len(keys), parts, i)
		for slot := lo; slot < hi; slot++ {
			var mc int
			if mc, buf, errs[i] = matchCount(s, codec, keys[slot], buf); errs[i] != nil {
				return
			}
			out[slot] = int32(mc)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SlotCandidates is one round's candidates in the flat layout of a frozen
// lattice (cube.Lattice): parallel per-slot arrays, of which only SumMhat
// changes between rounds. Slots, when non-nil, lists in ascending order the
// only slots scored (an exhaustive lattice's closed slots, or those
// PruneRedundantAncestors keeps).
type SlotCandidates struct {
	Keys                 []uint64
	SumM, SumMhat, Count []float64
	Slots                []int32
}

// TopByGainSlots is TopByGainTables over a lattice round: contiguous ranges
// of the scored slots stand in for the table partitions, with identical
// scoring, exclusion and tie-break semantics.
func TopByGainSlots(c engine.Backend, cands SlotCandidates, n int, exclude map[uint64]bool) []Candidate[uint64] {
	if n <= 0 {
		return nil
	}
	parts := c.Config().Partitions
	tops := make([][]Candidate[uint64], parts)
	c.RunStage("candgen/topk", parts, func(i int) {
		h := make(candHeap[uint64], 0, n+1)
		offer := func(slot int) {
			key := cands.Keys[slot]
			if !exclude[key] {
				h.consider(n, key, cube.Agg{SumM: cands.SumM[slot], SumMhat: cands.SumMhat[slot], Count: cands.Count[slot]})
			}
		}
		if cands.Slots != nil {
			lo, hi := engine.SplitRange(len(cands.Slots), parts, i)
			for _, slot := range cands.Slots[lo:hi] {
				offer(int(slot))
			}
		} else {
			lo, hi := engine.SplitRange(len(cands.Keys), parts, i)
			for slot := lo; slot < hi; slot++ {
				offer(slot)
			}
		}
		tops[i] = h.sorted()
	})
	return mergeTopK(tops, n)
}
