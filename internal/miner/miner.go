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
	defer qc.Finish() // returns the query's arena borrows
	wallStart := time.Now()
	simStart := engine.SimTime(qc)
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

// timedOn records f's wall and simulated durations on c under the named phase.
func timedOn(c engine.Backend, phase string, f func() error) error {
	wallStart := time.Now()
	simStart := engine.SimTime(c)
	err := f()
	c.Reg().AddPhase(phase, time.Since(wallStart))
	c.Reg().AddSimPhase(phase, engine.SimTime(c)-simStart)
	return err
}

// query is one mining query running against prepared state: it owns the
// per-query metrics scope, the forked (mutable-estimate) data view, and the
// candidate sample in effect for this query.
type query struct {
	p      *Prep
	c      engine.Backend // per-query scope of the shared backend
	opt    Options
	data   *engine.CachedData // per-query fork of the prepared blocks
	sample *candgen.Sample
	index  *candgen.InvertedIndex
	groups [][]int // the cube's column groups (Section 4.3)
}

// timed charges f's durations to the query's registry.
func (q *query) timed(phase string, f func() error) error {
	return timedOn(q.c, phase, f)
}

// pick is one rule chosen by a round, with the aggregates and gain it was
// chosen on.
type pick struct {
	rule rule.Rule
	agg  cube.Agg
	gain float64
}

// rounds is the rule-generation half of a query in the key representation
// prepared for the dataset: stringRounds for any schema, tableRounds when the
// keys pack into 64 bits. The two share the selection rule (selectRules) and
// the redundant-ancestor scan (redundantKeys), nothing else.
type rounds interface {
	// round runs one rule-generation round — candidate pruning, ancestor
	// generation, gain inputs — and picks up to l rules by the Section 4.4
	// criteria (see selectRules). It also returns the number of candidates
	// the round scored.
	round(l int) ([]pick, int64, error)
	// markSelected keeps r out of every later round's scoring.
	markSelected(r rule.Rule) error
}

// mineScoped runs one query on the given scope: rule generation in the key
// representation prepared for this dataset, scaling per variant.
// wallStart/simStart anchor the result's totals (cold runs pass the instant
// before preparation so the load is included, prepared queries the query
// start).
func (p *Prep) mineScoped(qc engine.Backend, opt Options, wallStart time.Time, simStart time.Duration) (*Result, error) {
	opt = opt.withDefaults()
	q, err := newQuery(p, qc, opt)
	if err != nil {
		return nil, err
	}
	// The fork's blocks die with the query; release any spill files they
	// grew so a long-lived backend does not accumulate per-query disk.
	defer q.data.Drop()
	d := p.ds.NumDims()

	var gen rounds
	if p.packer != nil {
		gen, err = newTableRounds(q)
	} else {
		gen, err = newStringRounds(q)
	}
	if err != nil {
		return nil, err
	}

	// Scaler per variant, over this query's private estimate columns.
	var scaler distScaler
	if opt.useRCT() {
		scaler = newRCTDistScaler(qc, q.data, p.dataBytes, opt.Epsilon, opt.MaxRules+len(opt.PriorRules)+1)
	} else {
		scaler = newNaiveDistScaler(qc, q.data, p.dataBytes, opt.Epsilon, opt.useShuffleJoin(), opt.ResetScaling)
	}

	res := &Result{}
	addRules := func(rs []rule.Rule) error {
		return q.timed(metrics.PhaseScaling, func() error {
			if err := scaler.AddRules(rs); err != nil {
				return err
			}
			for _, r := range rs {
				if err := gen.markSelected(r); err != nil {
					return fmt.Errorf("miner: %w", err)
				}
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
		picked, nCands, err := gen.round(min(opt.RulesPerIter, ruleBudget-len(res.Rules)))
		if err != nil {
			return nil, err
		}
		res.Candidates = nCands
		if len(picked) == 0 {
			break // no candidate with positive gain remains
		}
		rs := make([]rule.Rule, len(picked))
		for i, pk := range picked {
			rs[i] = pk.rule
			res.Rules = append(res.Rules, MinedRule{
				Rule:  pk.rule,
				Avg:   p.transform.InvertAvg(pk.agg.SumM / pk.agg.Count),
				Count: int64(pk.agg.Count + 0.5),
				Gain:  pk.gain,
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
	res.SimTime = engine.SimTime(qc) - simStart

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

// newQuery resolves the query's sample and forks the prepared blocks into a
// private data view.
func newQuery(p *Prep, qc engine.Backend, opt Options) (*query, error) {
	if opt.SampleFraction != 0 && opt.SampleFraction != p.opt.SampleFraction {
		return nil, fmt.Errorf("miner: prepared with SampleFraction=%v, query asked for %v (prepare again)",
			p.opt.SampleFraction, opt.SampleFraction)
	}
	q := &query{p: p, c: qc, opt: opt, groups: cube.SplitGroups(p.ds.NumDims(), opt.ColumnGroups)}

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
	return q, nil
}

// endRuleGen closes one round's rule generation, begun at the given instants:
// it counts the round's candidates and charges the whole span — candidate
// pruning, ancestor generation, gain inputs — to the rule-generation phase.
func (q *query) endRuleGen(candidates int64, wallStart time.Time, simStart time.Duration) {
	q.c.Reg().Add(metrics.CtrCandidates, candidates)
	q.c.Reg().AddPhase(metrics.PhaseRuleGen, time.Since(wallStart))
	q.c.Reg().AddSimPhase(metrics.PhaseRuleGen, engine.SimTime(q.c)-simStart)
}

// selectRules picks up to l rules from one round's pool — the top candidates
// in descending gain order, of total scored: the top candidate, then further
// candidates that are mutually disjoint with every rule already picked this
// iteration, rank within the top TopPercent of all candidates, and gain at
// least MinGainRatio of the top gain (Section 4.4). Only candidates it
// considers are decoded.
func selectRules[K cmp.Ordered](opt Options, pool []candgen.Candidate[K], total int64, l int, decode func(K, rule.Rule) (rule.Rule, error)) ([]pick, error) {
	if len(pool) == 0 {
		return nil, nil
	}
	take := func(cand candgen.Candidate[K]) (pick, error) {
		r, err := decode(cand.Key, nil)
		if err != nil {
			return pick{}, fmt.Errorf("miner: corrupt candidate key: %w", err)
		}
		return pick{rule: r, agg: cand.Agg, gain: cand.Gain}, nil
	}
	top, err := take(pool[0])
	if err != nil {
		return nil, err
	}
	picked := []pick{top}
	if l <= 1 {
		return picked, nil
	}
	rankCut := int(opt.TopPercent * float64(total))
	if rankCut < 1 {
		rankCut = 1
	}
	gainCut := opt.MinGainRatio * top.gain
	for rank := 1; rank < len(pool) && len(picked) < l; rank++ {
		if rank > rankCut {
			break
		}
		if pool[rank].Gain < gainCut {
			break // pool is sorted; later candidates only get worse
		}
		cand, err := take(pool[rank])
		if err != nil {
			return nil, err
		}
		disjoint := true
		for _, p := range picked {
			if !cand.rule.Disjoint(p.rule) {
				disjoint = false
				break
			}
		}
		if disjoint {
			picked = append(picked, cand)
		}
	}
	return picked, nil
}

// redundantKeys returns, among the candidates whose support counts are given,
// those with the same count as one of their children in the set — their gain
// is identical to the child's, so evaluating both is wasted work (Chapter 7,
// future work). The child (more specific rule) is kept. decode and encode are
// the codec's, over arity-d rules.
func redundantKeys[K comparable](counts map[K]float64, d int, decode func(K, rule.Rule) (rule.Rule, error), encode func(rule.Rule) (K, error)) (map[K]bool, error) {
	redundant := make(map[K]bool)
	buf := make(rule.Rule, d)
	for k, count := range counts {
		child, err := decode(k, buf)
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
			pk, err := encode(child)
			child[j] = v
			if err != nil {
				return nil, fmt.Errorf("miner: %w", err)
			}
			if pc, ok := counts[pk]; ok && pc == count {
				redundant[pk] = true
			}
		}
	}
	return redundant, nil
}

// currentKL computes the divergence between the measure and estimate columns
// across the query's cached blocks.
func (q *query) currentKL() (float64, error) {
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
func (q *query) informationGain() (float64, error) {
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
func (q *query) evaluateOnFull(rules []rule.Rule) (float64, error) {
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
