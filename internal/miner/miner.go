package miner

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/metrics"
	"sirum/internal/rule"
	"sirum/internal/stats"
)

// Miner executes one cold mining run (Algorithm 2) on an execution backend:
// it prepares the dataset (load, measure transform, pruning sample) and runs
// a single query against it. Interactive workloads that ask many queries
// over one dataset should Prepare once and query the returned Prep instead.
type Miner struct {
	c   engine.Backend
	ds  *dataset.Dataset
	opt Options
}

// New builds a miner over ds. The backend carries the execution substrate
// (parallelism, memory, cost model if simulated); metrics are accounted per
// query, so one backend can serve many miners, even concurrently.
func New(c engine.Backend, ds *dataset.Dataset, opt Options) *Miner {
	return &Miner{c: c, ds: ds, opt: opt.withDefaults()}
}

// Run mines the rule list: prepare, then one query, on one metrics scope so
// the result's phases cover the whole run. The prepared state is dropped
// afterwards; cold runs keep the thesis' per-iteration work profile (no
// cross-iteration LCA reuse).
func (m *Miner) Run() (*Result, error) {
	qc := engine.NewQueryScope(m.c)
	defer qc.Finish() // backend lifetime totals include this run's operator metrics
	wallStart := time.Now()
	simStart := qc.SimTime()
	p, err := prepare(m.c, m.ds, PrepOptions{
		SampleSize:     m.opt.SampleSize,
		Seed:           m.opt.Seed,
		Partitions:     m.opt.Partitions,
		SampleFraction: m.opt.SampleFraction,
		DisableLCAMemo: true,
	})
	if err != nil {
		return nil, err
	}
	defer p.Drop()
	return p.mineScoped(qc, m.opt, wallStart, simStart)
}

// timedOn charges f's wall and simulated durations on c to the named phase.
func timedOn(c engine.Backend, phase string, f func() error) error {
	wallStart := time.Now()
	simStart := c.SimTime()
	err := f()
	c.Reg().AddPhase(phase, time.Since(wallStart))
	c.Reg().AddSimPhase(phase, c.SimTime()-simStart)
	return err
}

// query is one mining query running against prepared state: it owns the
// per-query metrics scope, the forked (mutable-estimate) data view, and the
// candidate sample in effect for this query. It is generic over the rule-key
// representation of its codec: packed uint64 keys when the prepared schema
// fits 64 bits, string keys otherwise.
type query[K cmp.Ordered] struct {
	p      *Prep
	c      engine.Backend // per-query scope of the shared backend
	opt    Options
	codec  candgen.Codec[K]
	data   *engine.CachedData // per-query fork of the prepared blocks
	sample *candgen.Sample
	index  *candgen.InvertedIndex
	memo   *lcaMemo[K] // non-nil when cross-iteration LCA reuse applies

	// Lattice replay (packed keys only). space is where the query's lattice
	// comes from — a shared space of the Prep, or a private one for a sample
	// of the query's own — and nil when it mines without one. The two vectors
	// are borrowed from the scope's arena on first use and live for the query.
	space    *candSpace
	lat      *lattice
	sumMhat  []float64 // per lattice slot: this round's Σm̂
	leafMhat []float64 // per memo leaf key: this round's per-block Σm̂
}

// timed charges f's durations to the query's registry.
func (q *query[K]) timed(phase string, f func() error) error {
	return timedOn(q.c, phase, f)
}

// mineScoped picks the key representation prepared for this dataset and runs
// the generic mining loop on the given scope.
func (p *Prep) mineScoped(qc engine.Backend, opt Options, wallStart time.Time, simStart time.Duration) (*Result, error) {
	opt = opt.withDefaults()
	if p.packer != nil {
		return mineKeyed(p, qc, opt, wallStart, simStart, candgen.NewPackedCodec(p.packer))
	}
	return mineKeyed(p, qc, opt, wallStart, simStart, candgen.NewStringCodec(p.ds.NumDims()))
}

// mineKeyed runs one query. wallStart/simStart anchor the result's totals
// (cold runs pass the instant before preparation so the load is included,
// prepared queries the query start).
func mineKeyed[K cmp.Ordered](p *Prep, qc engine.Backend, opt Options, wallStart time.Time, simStart time.Duration, codec candgen.Codec[K]) (*Result, error) {
	q, err := newQuery(p, qc, opt, codec)
	if err != nil {
		return nil, err
	}
	// The fork's blocks die with the query; release any spill files they
	// grew so a long-lived backend does not accumulate per-query disk.
	defer q.data.Drop()
	ds := p.ds
	d := ds.NumDims()

	// Scaler per variant, over this query's private estimate columns.
	var scaler distScaler
	if opt.useRCT() {
		scaler = newRCTDistScaler(qc, q.data, p.dataBytes, opt.Epsilon, opt.MaxRules+len(opt.PriorRules)+1)
	} else {
		scaler = newNaiveDistScaler(qc, q.data, p.dataBytes, opt.Epsilon, opt.useShuffleJoin(), opt.ResetScaling)
	}

	res := &Result{}
	selected := map[K]bool{}
	addRules := func(rs []rule.Rule) error {
		return q.timed(metrics.PhaseScaling, func() error {
			if err := scaler.AddRules(rs); err != nil {
				return err
			}
			for _, r := range rs {
				k, err := codec.EncodeRule(r)
				if err != nil {
					return fmt.Errorf("miner: %w", err)
				}
				selected[k] = true
			}
			return nil
		})
	}

	// The all-wildcards rule is always first (Section 2.2), followed by any
	// prior knowledge (the cube-exploration application).
	if err := addRules([]rule.Rule{rule.AllWildcards(d)}); err != nil {
		return nil, err
	}
	for _, r := range opt.PriorRules {
		if err := addRules([]rule.Rule{r}); err != nil {
			return nil, err
		}
	}

	groups := cube.SplitGroups(d, opt.ColumnGroups)

	ruleBudget := opt.K
	if opt.TargetKL > 0 {
		ruleBudget = opt.MaxRules
	}
	klOf := func() (float64, error) {
		var kl float64
		err := q.timed(metrics.PhaseRuleSelection, func() error {
			var e error
			kl, e = q.currentKL()
			return e
		})
		return kl, err
	}

	for len(res.Rules) < ruleBudget {
		res.Iterations++
		cands, nCands, err := q.generateCandidates(groups)
		if err != nil {
			return nil, err
		}
		res.Candidates = nCands

		var picked []candgen.Candidate[K]
		err = q.timed(metrics.PhaseRuleSelection, func() error {
			var e error
			picked, e = q.selectRules(cands, nCands, selected, min(opt.RulesPerIter, ruleBudget-len(res.Rules)))
			return e
		})
		// picked holds value copies; the candidate tables go back to the
		// arena so the next iteration reuses their backing arrays.
		cands.release(q.c)
		if err != nil {
			return nil, err
		}
		if len(picked) == 0 {
			break // no candidate with positive gain remains
		}
		rs := make([]rule.Rule, len(picked))
		for i, cand := range picked {
			r, err := codec.DecodeRule(cand.Key, nil)
			if err != nil {
				return nil, fmt.Errorf("miner: corrupt candidate key: %w", err)
			}
			rs[i] = r
			res.Rules = append(res.Rules, MinedRule{
				Rule:  r,
				Avg:   p.transform.InvertAvg(cand.Agg.SumM / cand.Agg.Count),
				Count: int64(cand.Agg.Count + 0.5),
				Gain:  cand.Gain,
			})
		}
		if err := addRules(rs); err != nil {
			return nil, err
		}
		kl, err := klOf()
		if err != nil {
			return nil, err
		}
		res.KLTrajectory = append(res.KLTrajectory, kl)
		if opt.TargetKL > 0 && kl <= opt.TargetKL {
			break
		}
	}

	if len(res.KLTrajectory) > 0 {
		res.KL = res.KLTrajectory[len(res.KLTrajectory)-1]
	} else {
		kl, err := klOf()
		if err != nil {
			return nil, err
		}
		res.KL = kl
	}
	res.WallTime = time.Since(wallStart)
	res.SimTime = qc.SimTime() - simStart

	// Information gain of the final estimates (Section 5.1).
	ig, err := q.informationGain()
	if err != nil {
		return nil, err
	}
	res.InfoGain = ig
	if p.full != nil && opt.EvaluateOnFullData {
		igFull, err := q.evaluateOnFull(scaler.Rules())
		if err != nil {
			return nil, err
		}
		res.InfoGain = igFull
	}

	res.Phases = qc.Reg().Phases()
	res.SimPhases = qc.Reg().SimPhases()
	res.Counters = qc.Reg().Counters()
	return res, nil
}

// newQuery resolves the query's sample, forks the prepared blocks into a
// private data view, and decides whether the prepared LCA memo applies.
func newQuery[K cmp.Ordered](p *Prep, qc engine.Backend, opt Options, codec candgen.Codec[K]) (*query[K], error) {
	if opt.SampleFraction != 0 && opt.SampleFraction != p.opt.SampleFraction {
		return nil, fmt.Errorf("miner: prepared with SampleFraction=%v, query asked for %v (prepare again)",
			p.opt.SampleFraction, opt.SampleFraction)
	}
	q := &query[K]{p: p, c: qc, opt: opt, codec: codec}

	// The prepared sample (and its lazily built index) is reused when the
	// query's sample parameters match; otherwise the query draws its own.
	// Exhaustive queries (SampleSize 0) need no sample at all. Index
	// construction is charged as candidate pruning, where the per-iteration
	// implementation used to pay it.
	switch {
	case opt.SampleSize <= 0:
		// exhaustive
	case opt.SampleSize == p.opt.SampleSize && opt.Seed == p.opt.Seed:
		q.sample = p.sample
		if opt.useIndex() {
			if err := q.timed(metrics.PhaseCandPruning, func() error {
				q.index = p.indexFor()
				return nil
			}); err != nil {
				return nil, err
			}
		}
	default:
		q.sample = candgen.DrawSample(p.ds, stats.NewRand(opt.Seed), opt.SampleSize)
		if opt.useIndex() {
			if err := q.timed(metrics.PhaseCandPruning, func() error {
				q.index = candgen.BuildIndex(q.sample)
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}

	err := q.timed(metrics.PhaseDataLoad, func() error {
		cd, release, err := p.ensureData(qc)
		if err != nil {
			return err
		}
		defer release()
		q.data, err = cd.Fork(qc)
		return err
	})
	if err != nil {
		return nil, err
	}

	q.space = p.sharedSpace(q.sample)
	if q.space != nil && p.memoFits(q.sample) {
		// The first query pays the build (it replaces that query's first
		// LCA round, so it is charged as candidate pruning); later queries
		// get it for free.
		err := q.timed(metrics.PhaseCandPruning, func() error {
			memo, err := memoFor(q.space, q)
			q.memo = memo
			return err
		})
		if err != nil {
			q.data.Drop()
			return nil, err
		}
	}
	if p.packer == nil {
		q.space = nil // lattices are keyed by packed words
	} else if q.space == nil && !p.opt.DisableLCAMemo {
		q.space = new(candSpace) // the query's own sample: freeze in round 1, replay after
	}
	return q, nil
}

// candSet carries one round's candidate aggregates in whichever container
// the key representation produced: per-partition maps on the general path,
// arena-recycled PackedTables on the packed path, and views of the frozen
// lattice's arrays when the round was a replay. Exactly one field is non-nil.
// Callers release the set once its entries are consumed so the next iteration
// reuses the tables' backing arrays (a no-op otherwise).
type candSet[K cmp.Ordered] struct {
	maps   *engine.PColl[map[K]cube.Agg]
	tables *engine.PColl[*cube.PackedTable]
	slots  *candgen.SlotCandidates
}

// release returns table partitions to the backend arena.
func (cs candSet[K]) release(c engine.Backend) {
	if cs.tables != nil {
		cube.ReleaseTables(c, cs.tables)
	}
}

// generateCandidates runs one rule-generation round: candidate pruning (LCA
// computation), ancestor generation (the cube), gain-input preparation (the
// sample fix-up). Phases are timed separately to reproduce Figure 3.2.
// Packed-key queries run the whole round over flat tables; the dynamic cast
// is safe because a PackedCodec only ever inhabits Codec[uint64].
func (q *query[K]) generateCandidates(groups [][]int) (candSet[K], int64, error) {
	if pc, ok := any(q.codec).(candgen.PackedCodec); ok {
		return q.generateTableCandidates(pc, groups)
	}
	var lcas *engine.PColl[map[K]cube.Agg]
	wallStart := time.Now()
	simStart := q.c.SimTime()
	err := q.timed(metrics.PhaseCandPruning, func() error {
		var err error
		switch {
		case q.memo != nil:
			// Prepared fast path: the candidate keys, support sums and row
			// coverage are Mhat-independent, so only the estimate sums are
			// recomputed from this query's fork.
			lcas, err = q.memo.parts(q.c, q.data)
		case q.sample != nil:
			if q.opt.useShuffleJoin() {
				q.c.Repartition(q.p.dataBytes, 0)
			}
			lcas, err = q.codec.LCAParts(q.c, q.data, q.sample, q.opt.useIndex(), q.index)
		default:
			lcas, err = q.codec.ExhaustiveParts(q.c, q.data)
		}
		return err
	})
	if err != nil {
		return candSet[K]{}, 0, err
	}

	var cands *engine.PColl[map[K]cube.Agg]
	err = q.timed(metrics.PhaseAncestorGen, func() error {
		var err error
		cands, err = cube.ComputeKeyed[K](q.c, lcas, q.codec, groups)
		return err
	})
	if err != nil {
		return candSet[K]{}, 0, err
	}

	err = q.timed(metrics.PhaseGainComputing, func() error {
		if q.sample != nil {
			var err error
			cands, err = candgen.AdjustForSample(q.c, cands, q.sample, q.codec)
			if err != nil {
				return err
			}
		}
		if q.opt.PruneRedundantAncestors {
			var err error
			cands, err = pruneRedundant(q.c, cands, q.codec)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return candSet[K]{}, 0, err
	}
	n := cube.CountCandidates(q.c, cands)
	q.c.Reg().Add(metrics.CtrCandidates, n)
	q.c.Reg().AddPhase(metrics.PhaseRuleGen, time.Since(wallStart))
	q.c.Reg().AddSimPhase(metrics.PhaseRuleGen, q.c.SimTime()-simStart)
	return candSet[K]{maps: cands}, n, nil
}

// generateTableCandidates is the packed-key round. With a frozen lattice
// (see lattice) it only gathers the leaves' Σm̂ and replays the edges; the
// round that finds the lattice missing builds it first and then reads its
// own candidates through the same replay. Otherwise — reuse disabled, or a
// lattice past memoMaxEntries — it runs the per-round pipeline over arena-
// recycled flat tables: leaf instances (memoized, LCA or exhaustive) land in
// borrowed PackedTables, the cube runs table-native (cube.ComputeTables), and
// the sample fix-up mutates aggregates in place. Each intermediate collection
// is released the moment it is consumed, so a query's iterations cycle the
// same backing arrays through the arena instead of allocating the candidate
// universe per stage.
func (q *query[K]) generateTableCandidates(pc candgen.PackedCodec, groups [][]int) (candSet[K], int64, error) {
	wallStart := time.Now()
	simStart := q.c.SimTime()
	// Tables only exist on the packed path, where K is uint64.
	memo, _ := any(q.memo).(*lcaMemo[uint64])
	if q.lat == nil && q.space != nil && memo != nil {
		if err := q.acquireLattice(pc, memo, nil); err != nil {
			return candSet[K]{}, 0, err
		}
	}

	var lcas *engine.PColl[*cube.PackedTable]
	if q.lat == nil || q.lat.memo == nil {
		err := q.timed(metrics.PhaseCandPruning, func() error {
			var err error
			switch {
			case memo != nil:
				// The candidate keys, support sums and row coverage are
				// Mhat-independent, so only the estimate sums are recomputed
				// from this query's fork.
				lcas, err = memoTableParts(memo, q.c, q.data)
			case q.sample != nil:
				if q.opt.useShuffleJoin() {
					q.c.Repartition(q.p.dataBytes, 0)
				}
				lcas, err = pc.LCATables(q.c, q.data, q.sample, q.opt.useIndex(), q.index)
			default:
				lcas, err = pc.ExhaustiveTables(q.c, q.data)
			}
			return err
		})
		if err != nil {
			return candSet[K]{}, 0, err
		}
		if q.lat == nil && q.space != nil {
			if err := q.acquireLattice(pc, nil, lcas); err != nil {
				cube.ReleaseTables(q.c, lcas)
				return candSet[K]{}, 0, err
			}
		}
	}

	var cs candSet[K]
	var n int64
	var err error
	if q.lat != nil {
		cs, n, err = q.replayRound(pc, lcas)
	} else {
		cs, n, err = q.computeRound(pc, groups, lcas)
	}
	if err != nil {
		return candSet[K]{}, 0, err
	}
	q.c.Reg().Add(metrics.CtrCandidates, n)
	q.c.Reg().AddPhase(metrics.PhaseRuleGen, time.Since(wallStart))
	q.c.Reg().AddSimPhase(metrics.PhaseRuleGen, q.c.SimTime()-simStart)
	return cs, n, nil
}

// computeRound is the per-round cube and fix-up over this round's leaf
// tables, which it consumes.
func (q *query[K]) computeRound(pc candgen.PackedCodec, groups [][]int, lcas *engine.PColl[*cube.PackedTable]) (candSet[K], int64, error) {
	var cands *engine.PColl[*cube.PackedTable]
	err := q.timed(metrics.PhaseAncestorGen, func() error {
		var err error
		cands, err = cube.ComputeTables(q.c, lcas, pc.PackedKeys, groups)
		return err
	})
	// The leaf tables are consumed by the cube's round-0 shuffle; recycle
	// them before the fix-up borrows more.
	cube.ReleaseTables(q.c, lcas)
	if err != nil {
		return candSet[K]{}, 0, err
	}

	err = q.timed(metrics.PhaseGainComputing, func() error {
		if q.sample != nil {
			if err := candgen.AdjustTablesForSample(q.c, cands, q.sample, pc); err != nil {
				return err
			}
		}
		if q.opt.PruneRedundantAncestors {
			var err error
			cands, err = pruneRedundantTables(q.c, cands, pc)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		cube.ReleaseTables(q.c, cands)
		return candSet[K]{}, 0, err
	}
	return candSet[K]{tables: cands}, cube.CountTableCandidates(q.c, cands), nil
}

// selectRules picks up to l rules for this iteration: the top candidate by
// gain, then further candidates that are mutually disjoint with every rule
// already picked this iteration, rank within the top TopPercent of all
// candidates, and gain at least MinGainRatio of the top gain (Section 4.4).
func (q *query[K]) selectRules(cands candSet[K], total int64, selected map[K]bool, l int) ([]candgen.Candidate[K], error) {
	var pool []candgen.Candidate[K]
	switch {
	case cands.slots != nil:
		// Slots and tables only exist on the packed path, where K is uint64.
		top := candgen.TopByGainSlots(q.c, *cands.slots, q.opt.TopPoolSize, any(selected).(map[uint64]bool))
		pool = any(top).([]candgen.Candidate[K])
	case cands.tables != nil:
		top := candgen.TopByGainTables(q.c, cands.tables, q.opt.TopPoolSize, any(selected).(map[uint64]bool))
		pool = any(top).([]candgen.Candidate[K])
	default:
		pool = candgen.TopByGain(q.c, cands.maps, q.opt.TopPoolSize, selected)
	}
	if len(pool) == 0 {
		return nil, nil
	}
	picked := []candgen.Candidate[K]{pool[0]}
	if l <= 1 {
		return picked, nil
	}
	rankCut := int(q.opt.TopPercent * float64(total))
	if rankCut < 1 {
		rankCut = 1
	}
	gainCut := q.opt.MinGainRatio * pool[0].Gain
	top, err := q.codec.DecodeRule(pool[0].Key, nil)
	if err != nil {
		return nil, fmt.Errorf("miner: corrupt candidate key: %w", err)
	}
	pickedRules := []rule.Rule{top}
	for rank := 1; rank < len(pool) && len(picked) < l; rank++ {
		if rank > rankCut {
			break
		}
		cand := pool[rank]
		if cand.Gain < gainCut {
			break // pool is sorted; later candidates only get worse
		}
		r, err := q.codec.DecodeRule(cand.Key, nil)
		if err != nil {
			return nil, fmt.Errorf("miner: corrupt candidate key: %w", err)
		}
		disjoint := true
		for _, p := range pickedRules {
			if !r.Disjoint(p) {
				disjoint = false
				break
			}
		}
		if !disjoint {
			continue
		}
		picked = append(picked, cand)
		pickedRules = append(pickedRules, r)
	}
	return picked, nil
}

// pruneRedundant drops candidates that have the same support count as one of
// their children in the candidate set — their gain is identical to the
// child's, so evaluating both is wasted work (Chapter 7, future work). The
// child (more specific rule) is kept.
func pruneRedundant[K cmp.Ordered](c engine.Backend, cands *engine.PColl[map[K]cube.Agg], codec candgen.Codec[K]) (*engine.PColl[map[K]cube.Agg], error) {
	d := codec.NumDims()
	// The check needs parent lookups across partitions, so gather the
	// counts first (keys only — small relative to full aggregates).
	counts := make(map[K]float64)
	for _, part := range cands.Parts() {
		for k, agg := range part {
			counts[k] = agg.Count
		}
	}
	redundant := make(map[K]bool)
	buf := make(rule.Rule, d)
	for k := range counts {
		child, err := codec.DecodeRule(k, buf)
		if err != nil {
			return nil, fmt.Errorf("miner: corrupt candidate key: %w", err)
		}
		buf = child
		for j := 0; j < d; j++ {
			if child[j] == rule.Wildcard {
				continue
			}
			v := child[j]
			child[j] = rule.Wildcard
			pk, err := codec.EncodeRule(child)
			child[j] = v
			if err != nil {
				return nil, fmt.Errorf("miner: %w", err)
			}
			if pc, ok := counts[pk]; ok && pc == counts[k] {
				redundant[pk] = true
			}
		}
	}
	if len(redundant) == 0 {
		return cands, nil
	}
	return engine.MapParts(c, cands, "miner/prune-redundant", func(_ int, part map[K]cube.Agg) map[K]cube.Agg {
		out := make(map[K]cube.Agg, len(part))
		for k, v := range part {
			if !redundant[k] {
				out[k] = v
			}
		}
		return out
	}), nil
}

// pruneRedundantTables is pruneRedundant over table partitions: survivors are
// copied into fresh borrowed tables and the originals recycled.
func pruneRedundantTables(c engine.Backend, cands *engine.PColl[*cube.PackedTable], codec candgen.PackedCodec) (*engine.PColl[*cube.PackedTable], error) {
	d := codec.NumDims()
	counts := make(map[uint64]float64)
	for _, part := range cands.Parts() {
		part.ForEach(func(k uint64, agg cube.Agg) { counts[k] = agg.Count })
	}
	redundant := make(map[uint64]bool)
	buf := make(rule.Rule, d)
	for k := range counts {
		child, err := codec.DecodeRule(k, buf)
		if err != nil {
			return nil, fmt.Errorf("miner: corrupt candidate key: %w", err)
		}
		buf = child
		for j := 0; j < d; j++ {
			if child[j] == rule.Wildcard {
				continue
			}
			v := child[j]
			child[j] = rule.Wildcard
			pk, err := codec.EncodeRule(child)
			child[j] = v
			if err != nil {
				return nil, fmt.Errorf("miner: %w", err)
			}
			if pc, ok := counts[pk]; ok && pc == counts[k] {
				redundant[pk] = true
			}
		}
	}
	if len(redundant) == 0 {
		return cands, nil
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

// currentKL computes the divergence between the measure and estimate columns
// across the query's cached blocks.
func (q *query[K]) currentKL() (float64, error) {
	data := q.data
	type sums struct{ sp, sq float64 }
	partial := make([]sums, data.NumBlocks())
	if err := data.Scan("miner/kl-sums", false, func(bi int, b *engine.TupleBlock) {
		for i := range b.M {
			partial[bi].sp += b.M[i]
			partial[bi].sq += b.Mhat[i]
		}
	}); err != nil {
		return 0, err
	}
	var sp, sq float64
	for _, p := range partial {
		sp += p.sp
		sq += p.sq
	}
	if sp == 0 || sq == 0 {
		return 0, nil
	}
	klParts := make([]float64, data.NumBlocks())
	if err := data.Scan("miner/kl", false, func(bi int, b *engine.TupleBlock) {
		var kl float64
		for i := range b.M {
			p := b.M[i] / sp
			if p == 0 {
				continue
			}
			q := b.Mhat[i] / sq
			if q > 0 {
				kl += p * math.Log(p/q)
			}
		}
		klParts[bi] = kl
	}); err != nil {
		return 0, err
	}
	var kl float64
	for _, v := range klParts {
		kl += v
	}
	if kl < 0 && kl > -1e-12 {
		kl = 0
	}
	return kl, nil
}

// informationGain computes the Section 5.1 metric over the query's blocks.
func (q *query[K]) informationGain() (float64, error) {
	data := q.data
	kl, err := q.currentKL()
	if err != nil {
		return 0, err
	}
	// Baseline KL: estimates equal to the global average.
	var sum float64
	var n int
	partial := make([][2]float64, data.NumBlocks())
	if err := data.Scan("miner/ig-base", false, func(bi int, b *engine.TupleBlock) {
		var s float64
		for _, v := range b.M {
			s += v
		}
		partial[bi] = [2]float64{s, float64(len(b.M))}
	}); err != nil {
		return 0, err
	}
	for _, p := range partial {
		sum += p[0]
		n += int(p[1])
	}
	if n == 0 || sum == 0 {
		return 0, nil
	}
	avg := sum / float64(n)
	baseParts := make([]float64, data.NumBlocks())
	if err := data.Scan("miner/ig-kl", false, func(bi int, b *engine.TupleBlock) {
		var klb float64
		for _, v := range b.M {
			p := v / sum
			if p == 0 {
				continue
			}
			q := avg / sum
			klb += p * math.Log(p/q)
		}
		baseParts[bi] = klb
	}); err != nil {
		return 0, err
	}
	var base float64
	for _, v := range baseParts {
		base += v
	}
	return base - kl, nil
}

// evaluateOnFull refits the mined rule list on the full dataset with a
// single-node RCT scaler and returns the true information gain — the quality
// metric of the SIRUM-on-sample experiments. Rules whose support is empty on
// the full data cannot occur (a sample rule always covers its sample rows,
// which come from the full data).
func (q *query[K]) evaluateOnFull(rules []rule.Rule) (float64, error) {
	_, work := maxent.NewTransform(q.p.full.Measure)
	s := maxent.NewRCTScaler(q.p.full, work, len(rules)+1)
	s.Epsilon = q.opt.Epsilon
	for _, r := range rules {
		if _, err := s.AddRule(r); err != nil {
			return 0, fmt.Errorf("miner: refitting on full data: %w", err)
		}
	}
	return maxent.InformationGain(work, s.Mhat()), nil
}
