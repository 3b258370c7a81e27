package sirum

import (
	"fmt"
	"sync"

	"sirum/internal/engine"
	"sirum/internal/explore"
	"sirum/internal/miner"
	"sirum/internal/spec"
)

// PrepareOptions configures Dataset.Prepare — the work done once per
// dataset, before any query: building the execution substrate, loading and
// partitioning the data onto it, computing the measure transform, drawing
// the candidate-pruning sample and its inverted index.
type PrepareOptions struct {
	// SampleSize is |s| for candidate pruning, drawn once so every query
	// sees the same candidate space. 0 keeps the Mine default (64 for
	// datasets above 1000 rows, exhaustive otherwise).
	SampleSize int
	// Seed drives sampling (default 1). Queries whose Seed matches reuse
	// the prepared sample; others draw their own.
	Seed int64
	// SampleFraction in (0,1) prepares a Bernoulli sample of the data
	// ("SIRUM on sample data") instead of the data itself.
	SampleFraction float64
	// Cluster sizes the execution substrate the session owns.
	Cluster Cluster
	// Backend selects the execution substrate (default BackendNative).
	Backend Backend
	// RemineFactor is Append's staleness trigger (miner.Maintain's
	// remineFactor): a full re-mine fires when the refit rule list's share
	// of unexplained divergence exceeds RemineFactor times the share right
	// after the last full mine (default miner.DefaultRemineFactor, 1.5;
	// lower re-mines more eagerly — the share saturates at 1.0 when the
	// rules stop explaining anything, so thresholds must stay below that
	// times the base share).
	RemineFactor float64
}

// Canonical normalizes the prepare options for a dataset of the given size
// into their canonical prep spec: defaults applied, backend spelled out.
// The prep spec is part of a session's cacheable identity — sessions over
// the same dataset source with equal prep specs answer queries
// identically, so servers may share cached results between them.
func (o PrepareOptions) Canonical(rows int) spec.PrepSpec {
	s := spec.PrepSpec{
		Version:        spec.Version,
		SampleSize:     o.SampleSize,
		Seed:           o.Seed,
		SampleFraction: o.SampleFraction,
		Backend:        string(o.Backend),
		RemineFactor:   o.RemineFactor,
	}
	if s.SampleSize == 0 && rows > 1000 {
		s.SampleSize = 64
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Backend == "" {
		s.Backend = string(BackendNative)
	}
	if s.RemineFactor <= 0 {
		s.RemineFactor = miner.DefaultRemineFactor
	}
	return s
}

// prepOptions derives the internal preparation options via the canonical
// spec, keeping the defaults in one place.
func (o PrepareOptions) prepOptions(rows int) miner.PrepOptions {
	c := o.Canonical(rows)
	return miner.PrepOptions{SampleSize: c.SampleSize, Seed: c.Seed, SampleFraction: c.SampleFraction}
}

// Prepared is a mining session: a dataset prepared once on a long-lived
// execution substrate, answering many queries. Mine and Explore are safe to
// call concurrently — every query works on a private fork of the mutable
// estimate state with private metrics, sharing only the immutable prepared
// blocks, sample and index. Append folds new data in; it invalidates the
// prepared state and rebuilds it on the grown dataset, blocking until
// in-flight queries finish. Close releases the substrate.
type Prepared struct {
	mu       sync.RWMutex
	d        *Dataset
	cl       engine.Backend
	popt     PrepareOptions
	prep     *miner.Prep
	rules    miner.Maintained // the rule list Append maintains
	dsSpec   spec.DatasetSpec // source identity; Epoch/Chain fields stay zero here
	prepSpec spec.PrepSpec
	epoch    int64    // bumped by every successful Append
	chain    [32]byte // content chain: source fp, extended by each batch's content hash
	closed   bool
}

// Prepare loads the dataset onto a fresh execution substrate and returns the
// session. The caller owns the session and must Close it.
func (d *Dataset) Prepare(opt PrepareOptions) (*Prepared, error) {
	cl, err := opt.Cluster.backend(opt.Backend)
	if err != nil {
		return nil, err
	}
	prep, err := miner.Prepare(cl, d.ds, opt.prepOptions(d.NumRows()))
	if err != nil {
		cl.Close()
		return nil, err
	}
	dsSpec := d.sourceSpec()
	return &Prepared{
		d: d, cl: cl, popt: opt, prep: prep,
		dsSpec:   dsSpec,
		prepSpec: opt.Canonical(d.NumRows()),
		chain:    dsSpec.Fingerprint(),
	}, nil
}

// DatasetSpec returns the canonical identity of the data this session
// serves: the source fingerprint with Epoch set to the current epoch. The
// source part is stable for the session's lifetime; the epoch is bumped by
// every successful Append, which is what lets result caches invalidate
// append-stale entries for free.
func (p *Prepared) DatasetSpec() spec.DatasetSpec {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.datasetSpecLocked()
}

// datasetSpecLocked stamps the source spec with the current epoch and
// content chain; callers hold at least the read lock.
func (p *Prepared) datasetSpecLocked() spec.DatasetSpec {
	s := p.dsSpec
	s.Epoch = p.epoch
	s.Chain = spec.Hex(p.chain)
	return s
}

// PrepSpec returns the canonical prepare spec the session was built with.
func (p *Prepared) PrepSpec() spec.PrepSpec {
	return p.prepSpec // immutable after Prepare
}

// Epoch returns how many Appends the session has absorbed.
func (p *Prepared) Epoch() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

// MineSpec canonicalizes a mine query against the session's current data
// in one atomic step: the returned dataset spec's epoch and the
// rows-dependent query defaults are read under the same lock, so the pair
// is consistent even while Appends race. It does not run the query.
func (p *Prepared) MineSpec(opt Options) (spec.DatasetSpec, spec.QuerySpec, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	q, err := opt.Canonical(p.d.NumRows())
	return p.datasetSpecLocked(), q, err
}

// ExploreSpec is MineSpec for exploration queries.
func (p *Prepared) ExploreSpec(opt ExploreOptions) (spec.DatasetSpec, spec.QuerySpec) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.datasetSpecLocked(), opt.Canonical()
}

// NumRows returns the current (accumulated) number of tuples.
func (p *Prepared) NumRows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.d.NumRows()
}

// SessionStats describes a live session for registries and dashboards: the
// data it currently serves and the substrate-lifetime metrics accumulated
// across every query answered so far.
type SessionStats struct {
	// Rows is the accumulated dataset size (grows with Append).
	Rows int `json:"rows"`
	// Epoch counts the Appends absorbed so far; it is part of every cached
	// result's key, so a bumped epoch is what invalidates stale entries.
	Epoch int64 `json:"epoch"`
	// Fingerprint is the hex source fingerprint of the dataset the session
	// serves (stable across Appends; see DatasetSpec).
	Fingerprint string `json:"fingerprint"`
	// Backend names the execution substrate ("native", "sim").
	Backend string `json:"backend"`
	// Lifetime aggregates counters and phase durations across all queries
	// answered on this session's substrate, unlike Result.Metrics which
	// isolates one query.
	Lifetime QueryMetrics `json:"lifetime"`
}

// Stats snapshots the session. Safe to call concurrently with queries; a
// closed session still reports its final totals.
func (p *Prepared) Stats() SessionStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	snap := p.cl.Reg().Snapshot()
	return SessionStats{
		Rows:        p.d.NumRows(),
		Epoch:       p.epoch,
		Fingerprint: spec.Hex(p.dsSpec.Fingerprint()),
		Backend:     p.backendName(),
		Lifetime: QueryMetrics{
			Counters:  snap.Counters,
			Phases:    snap.Phases,
			SimPhases: snap.SimPhases,
		},
	}
}

// checkQuery validates that a query does not try to move the session to a
// different substrate mid-flight.
func (p *Prepared) checkQuery(backend Backend) error {
	if p.closed {
		return fmt.Errorf("sirum: session is closed")
	}
	if backend != "" && backend != p.popt.Backend && !(backend == BackendNative && p.popt.Backend == "") {
		return fmt.Errorf("sirum: session prepared on backend %q; leave Options.Backend unset per query", p.backendName())
	}
	return nil
}

func (p *Prepared) backendName() string {
	if p.popt.Backend == "" {
		return string(BackendNative)
	}
	return string(p.popt.Backend)
}

// Mine runs one query against the prepared state. Options.Cluster and
// Options.Backend are fixed at Prepare time and ignored here (a differing
// Backend is rejected). Safe for concurrent use.
func (p *Prepared) Mine(opt Options) (*Result, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkQuery(opt.Backend); err != nil {
		return nil, err
	}
	mopt, err := opt.minerOptions(p.d.NumRows())
	if err != nil {
		return nil, err
	}
	res, err := p.prep.Mine(mopt)
	if err != nil {
		return nil, err
	}
	return p.d.publicResult(res), nil
}

// Explore recommends informative rules beyond the prior knowledge, as
// Dataset.Explore, but against the prepared state. Safe for concurrent use.
func (p *Prepared) Explore(opt ExploreOptions) (*ExploreResult, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkQuery(opt.Backend); err != nil {
		return nil, err
	}
	rec, err := explore.RunPrepared(p.prep, explore.Options{
		K: opt.K, GroupBys: opt.GroupBys, Optimized: true, MultiRule: true, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return p.d.exploreResult(rec)
}

// AppendResult reports one Append: whether the maintained rule list had to
// be re-mined from scratch or a cheap refit sufficed, and its current state
// on the grown data.
type AppendResult struct {
	// Remined is true when the batch triggered a full mining pass (the rule
	// list had drifted past the staleness threshold, or nothing was mined
	// yet).
	Remined bool
	// Rows is the accumulated dataset size.
	Rows int
	// KL is the divergence of the maintained rule list on the accumulated
	// data.
	KL float64
	// Rules is the maintained rule list with aggregates recomputed on the
	// accumulated data.
	Rules []Rule
}

// Append folds a batch of new tuples into the session: the data grows, the
// prepared state (blocks, transform, sample, index) is invalidated and
// rebuilt, and the maintained rule list is refit — or re-mined with opt when
// it no longer explains the data (see the streaming example). Append blocks
// until in-flight queries finish; queries issued after it see the grown
// data.
func (p *Prepared) Append(batch *Dataset, opt Options) (*AppendResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkQuery(opt.Backend); err != nil {
		return nil, err
	}
	merged, err := p.d.ds.Concat(batch.ds)
	if err != nil {
		return nil, err
	}
	// The grown dataset keeps the base source identity: what changed is the
	// epoch, which is bumped below once the append commits.
	grown := &Dataset{ds: merged, src: p.d.src}
	mopt, err := opt.minerOptions(grown.NumRows())
	if err != nil {
		return nil, err
	}

	// Nothing below touches session state until the append commits, so a
	// failed preparation or maintenance pass leaves the session exactly as
	// it was — retrying the Append cannot double-count the batch. A re-mine
	// runs as a query against the new prep, not a second data load.
	prep, err := miner.Prepare(p.cl, grown.ds, p.popt.prepOptions(grown.NumRows()))
	if err != nil {
		return nil, err
	}
	rules, incRes, err := miner.Maintain(prep, grown.ds, p.rules, mopt, p.prepSpec.RemineFactor)
	if err != nil {
		prep.Drop()
		return nil, err
	}
	p.prep.Drop()
	p.prep, p.rules, p.d = prep, rules, grown
	p.epoch++
	p.chain = spec.ExtendChain(p.chain, batch.contentHash())

	out := &AppendResult{Remined: incRes.Remined, Rows: grown.NumRows(), KL: incRes.KL}
	for _, mr := range incRes.Rules {
		out.Rules = append(out.Rules, grown.publicRule(mr))
	}
	return out, nil
}

// Close drops the prepared state and tears down the session's execution
// substrate. The session is unusable afterwards.
func (p *Prepared) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	p.prep.Drop()
	return p.cl.Close()
}

// exploreResult translates an internal recommendation, describing the prior
// cells against this dataset.
func (d *Dataset) exploreResult(rec *explore.Recommendation) (*ExploreResult, error) {
	out := &ExploreResult{Result: d.publicResult(rec.Result)}
	for _, pr := range rec.PriorRules {
		avgSum, count := pr.SupportSums(d.ds)
		mr := miner.MinedRule{Rule: pr, Avg: avgSum / float64(count), Count: int64(count)}
		out.Prior = append(out.Prior, d.publicRule(mr))
	}
	return out, nil
}
