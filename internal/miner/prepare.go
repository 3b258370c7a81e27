package miner

import (
	"cmp"
	"fmt"
	"sync"
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

// PrepOptions configures the prepare-once phase of a mining session: the
// work that depends only on the dataset, not on any particular query.
type PrepOptions struct {
	// SampleSize is |s| for candidate pruning; the sample is drawn once so
	// that every query (and every variant, as in the thesis' evaluation)
	// sees the same candidate space. 0 prepares for exhaustive exploration.
	SampleSize int
	// Seed drives the pruning sample and the Bernoulli data sample
	// (default 1).
	Seed int64
	// Partitions overrides the number of data blocks (default: backend's).
	Partitions int
	// SampleFraction, in (0,1), prepares a Bernoulli sample of the data
	// instead of the data itself (SIRUM on sample data, Section 4.5).
	SampleFraction float64
	// DisableLCAMemo turns off the cross-iteration/cross-query reuse of
	// everything estimate-independent — the LCA leaf memo and the frozen
	// candidate lattice above it — restoring the paper-faithful behaviour of
	// recomputing candidate pruning and the cube on every iteration. The
	// experiments that compare strategies by time need it off; serving
	// sessions want it on (the default).
	DisableLCAMemo bool
}

func (o PrepOptions) withDefaults() PrepOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// memoMaxEntries caps what a candidate space may keep between rounds: the
// LCA memo's row-incidence count (one int32 each) and, separately, the frozen
// lattice's slots plus edges. Beyond it the state would rival the data in
// size, so queries fall back to per-iteration recomputation. A variable only
// so tests can lower it.
var memoMaxEntries = 32 << 20

// Prep is the prepare-once state of a mining session over one dataset on
// one (possibly shared) backend: the measure transform, the partitioned
// blocks it owns in the backend's cache, the pruning sample with its inverted
// index, and (lazily) everything about rule generation that does not depend
// on the estimates. Many queries — Mine with different K, variants, priors —
// run against one Prep concurrently: all prepared state is immutable after
// construction, and every query works on a private fork of the estimate
// columns with a private metrics scope.
//
// The Prep alone owns its canonical blocks; the backend keeps no list of
// prepared datasets. Drop releases them, and the next query reloads them
// and pays for the load (disk_read_bytes and the data_load phase) the way a
// cold run does.
//
// Build once, replay every round. A candidate space — the LCAs of the
// prepared sample, or, for exhaustive queries, the data tuples themselves —
// fixes the candidate keys, their Σm, counts and sample match counts, and
// which leaf feeds which candidate; only Σm̂ moves. The first query over a
// space builds its leaf memo (covered rows per leaf key) and, on schemas
// that pack into 64-bit keys, the frozen lattice above it (see lattice and
// cube.Lattice); that query's remaining rounds and every later query only
// gather leaf Σm̂ from their own fork and add along the lattice's edges. The
// two shared spaces are independent, so a session prepared with a sample
// still shares the exhaustive lattice between its Explore queries. A query
// that brings its own sample builds a private leaf memo and lattice in its
// first round; later rounds only gather. Drop releases both spaces (an
// Append replaces the Prep, so grown data never sees a stale lattice);
// nothing is built inside Prepare itself.
//
// A lattice holds about 28 bytes per candidate (key, Σm, count, match
// count), 8 per edge and 8–16 per candidate of key index, and each in-flight
// query borrows one 8-byte-per-candidate Σm̂ vector from the backend arena.
// A leaf memo holds 4 bytes per (row, sample tuple) incidence; a private one
// lives as long as its query. A space whose memo would pass memoMaxEntries
// incidences, or whose lattice would pass it in slots plus edges, keeps the
// per-round pipeline, as does everything under DisableLCAMemo.
type Prep struct {
	c    engine.Backend
	ds   *dataset.Dataset // the data queries run against (the Bernoulli sample if SampleFraction is set)
	full *dataset.Dataset // the unsampled dataset for EvaluateOnFullData; nil without SampleFraction
	opt  PrepOptions

	transform maxent.Transform
	work      []float64 // transformed measure column
	dataBytes int64
	parts     int
	sample    *candgen.Sample // nil when SampleSize is 0
	packer    *rule.Packer    // non-nil when the schema packs into 64-bit keys

	indexOnce sync.Once
	index     *candgen.InvertedIndex // built on first indexed use; nil without a sample

	// mu guards data, the canonical blocks: nil until loaded and after Drop.
	// A query holds it shared while it forks the blocks; Drop and a (re)load
	// hold it exclusively.
	mu   sync.RWMutex
	data *engine.CachedData

	// spaces holds the build-once state of the candidate spaces queries can
	// share, indexed by spaceSample and spaceExhaustive.
	spaces [2]candSpace
}

const (
	spaceSample     = iota // LCAs of the prepared pruning sample
	spaceExhaustive        // every data tuple; independent of any sample
)

// Prepare runs the preparation phase on c: measure transform, optional
// Bernoulli data sample, pruning sample + inverted index, and the block load
// into the backend's cache. The returned Prep serves many queries; Drop
// releases the blocks when the session ends.
func Prepare(c engine.Backend, ds *dataset.Dataset, opt PrepOptions) (*Prep, error) {
	p, err := prepare(c, ds, opt)
	if err != nil {
		return nil, err
	}
	// Load eagerly so the first query pays no preparation cost. No query can
	// reach p yet, so the lock is not needed.
	if err := p.load(c); err != nil {
		return nil, err
	}
	return p, nil
}

// prepare builds the Prep without loading blocks: the load happens lazily in
// fork, charged to whichever query triggers it (for cold runs, the one and
// only query, so its result covers the whole run).
func prepare(c engine.Backend, ds *dataset.Dataset, opt PrepOptions) (*Prep, error) {
	if s, ok := c.(*engine.QueryScope); ok {
		c = s.Base()
	}
	opt = opt.withDefaults()
	if ds.NumRows() == 0 {
		return nil, fmt.Errorf("miner: empty dataset")
	}
	p := &Prep{c: c, ds: ds, opt: opt}

	// SIRUM on sample data (Section 4.5): replace D with a Bernoulli sample
	// sized to memory; keep the original around for final evaluation.
	if opt.SampleFraction > 0 && opt.SampleFraction < 1 {
		p.full = ds
		p.ds = ds.SampleFraction(stats.NewRand(opt.Seed+1), opt.SampleFraction)
		if p.ds.NumRows() == 0 {
			return nil, fmt.Errorf("miner: sample fraction %v left no rows", opt.SampleFraction)
		}
	}

	// Measure preprocessing (Section 2.2).
	p.transform, p.work = maxent.NewTransform(p.ds.Measure)
	p.dataBytes = p.ds.ApproxBytes()
	p.parts = opt.Partitions
	if p.parts <= 0 {
		p.parts = c.Config().Partitions
	}

	// The pruning sample is drawn once; queries whose sample parameters
	// match reuse it (and the lazily built inverted index).
	if opt.SampleSize > 0 {
		p.sample = candgen.DrawSample(p.ds, stats.NewRand(opt.Seed), opt.SampleSize)
	}
	// Packed single-word rule keys whenever the dictionaries fit; queries
	// fall back to string keys otherwise. Recomputed on every (re)prepare, so
	// appends that grow a dictionary past a field boundary stay correct.
	p.packer, _ = rule.NewPacker(p.ds.DomainSizes())
	return p, nil
}

// indexFor returns the per-attribute inverted index over the prepared
// sample (Section 4.2), building it exactly once on first indexed use —
// variants that never consult the index never pay for it.
func (p *Prep) indexFor() *candgen.InvertedIndex {
	p.indexOnce.Do(func() {
		if p.sample != nil {
			p.index = candgen.BuildIndex(p.sample)
		}
	})
	return p.index
}

// Dataset returns the data queries run against (the Bernoulli sample when
// SampleFraction is set).
func (p *Prep) Dataset() *dataset.Dataset { return p.ds }

// Backend returns the shared substrate the session runs on.
func (p *Prep) Backend() engine.Backend { return p.c }

// Options returns the effective preparation options.
func (p *Prep) Options() PrepOptions { return p.opt }

// Mine runs one query against the prepared state on a fresh metrics scope.
// It is safe to call concurrently.
func (p *Prep) Mine(opt Options) (*Result, error) {
	// The scope's registry forwards every count to the substrate's lifetime
	// registry as it is recorded, so session stats see every query.
	qc := engine.NewQueryScope(p.c)
	defer qc.Finish()
	return p.mineScoped(qc, opt.withDefaults(), time.Now(), engine.SimTime(qc))
}

// Drop releases the blocks and every candidate space's memo and lattice.
// Queries already in flight finish (they hold forks and their lattice); the
// next query reloads the blocks and pays for the load.
func (p *Prep) Drop() {
	p.mu.Lock()
	if p.data != nil {
		p.data.Drop()
		p.data = nil
	}
	p.mu.Unlock()
	for i := range p.spaces {
		p.spaces[i].drop()
	}
}

// fork returns a private fork of the canonical blocks for query scope qc,
// first reloading them if Drop released them.
func (p *Prep) fork(qc engine.Backend) (*engine.CachedData, error) {
	p.mu.RLock()
	if p.data != nil {
		defer p.mu.RUnlock()
		return p.data.Fork(qc)
	}
	p.mu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.load(qc); err != nil {
		return nil, err
	}
	return p.data.Fork(qc)
}

// load caches the canonical blocks unless they are already loaded, charging
// the read from the distributed file system to qc. The caller holds p.mu
// exclusively.
func (p *Prep) load(qc engine.Backend) error {
	if p.data != nil {
		return nil
	}
	blocks := engine.BlocksFromColumns(p.ds.Dims, p.work, nil, p.parts)
	qc.Reg().Add(metrics.CtrDiskReadBytes, p.dataBytes)
	data, err := engine.CacheTuples(p.c, blocks)
	if err != nil {
		return err
	}
	p.data = data
	return nil
}

// sharedSpace returns the prepared candidate space a query with the given
// resolved sample draws from, or nil when it shares none: reuse is off, or
// the sample is the query's own.
func (p *Prep) sharedSpace(sample *candgen.Sample) *candSpace {
	switch {
	case p.opt.DisableLCAMemo:
		return nil
	case sample == nil:
		return &p.spaces[spaceExhaustive]
	case sample == p.sample:
		return &p.spaces[spaceSample]
	}
	return nil
}

// memoFits reports whether the leaf memo over the given sample's space (the
// exhaustive one when nil) stays under memoMaxEntries row incidences: one
// per row, times the sample size when LCAs are taken.
func (p *Prep) memoFits(sample *candgen.Sample) bool {
	incidences := int64(p.ds.NumRows())
	if sample != nil {
		incidences *= int64(sample.Size())
	}
	return incidences <= int64(memoMaxEntries)
}

// leafKeys is a codec's leaf enumeration (ForEachLeafKey): a block's rows
// in ascending order, each with its leaf keys; it returns the LCA
// comparisons the enumeration made.
type leafKeys[K cmp.Ordered] func(b *engine.TupleBlock, s *candgen.Sample, ix *candgen.InvertedIndex, emit func(row int, keys []K)) int64

// memoFor returns the LCA memo of space sp in the caller's key
// representation — slot is sp's field for it — building it from q's fork
// and q's sample on first use (one builder at a time; concurrent first
// queries of a shared space wait). It is nil when the memo would pass
// memoMaxEntries. The build replaces the building query's first LCA round,
// so it is charged as candidate pruning; later rounds, and later queries of
// a shared space, get it for free.
func memoFor[K cmp.Ordered](q *query, sp *candSpace, slot **lcaMemo[K], forEachLeaf leafKeys[K]) (*lcaMemo[K], error) {
	if !q.p.memoFits(q.sample) {
		return nil, nil
	}
	var memo *lcaMemo[K]
	err := q.timed(metrics.PhaseCandPruning, func() error {
		sp.mu.Lock()
		defer sp.mu.Unlock()
		if *slot == nil {
			// The memo indexes the query's own sample, whether or not its
			// variant prunes through the index.
			ix := q.index
			if ix == nil && q.sample != nil {
				ix = candgen.BuildIndex(q.sample)
			}
			built, err := buildLCAMemo(q.c, q.data, q.sample, ix, forEachLeaf)
			if err != nil {
				return err
			}
			*slot = built
		}
		memo = *slot
		return nil
	})
	return memo, err
}

// lcaMemo caches, per block, the estimate-independent part of the LCA (or
// exhaustive) candidate aggregates: each distinct candidate key with its
// measure sum, pair count and covered-row incidence list. Keys, sums and
// counts never change between iterations or queries; only the estimate sums
// do, and those are recomputed per round as a gather over the query fork's
// Mhat column — the prepare-once payoff that replaces the full LCA
// recomputation of every round.
type lcaMemo[K cmp.Ordered] struct {
	blocks []lcaMemoBlock[K]
}

type lcaMemoBlock[K cmp.Ordered] struct {
	keys     []K
	sumM     []float64
	count    []float64
	rowStart []int32 // CSR offsets into rows, len(keys)+1
	rows     []int32 // block-local row ids, one per (row, sample) incidence
}

// sumMhat sums a block's estimate column over key ki's covered rows, in
// ascending row order — the one m̂-dependent step of every memoized round.
func (mb *lcaMemoBlock[K]) sumMhat(ki int, mhat []float64) float64 {
	var sm float64
	for _, r := range mb.rows[mb.rowStart[ki]:mb.rowStart[ki+1]] {
		sm += mhat[r]
	}
	return sm
}

// buildLCAMemo scans the data once, producing the same per-block key sets as
// the pipeline's LCA scan (or exhaustive scan when s is nil) while recording
// the row incidences. A block lists its keys in first-seen order, and each
// key's rows in ascending order — the summation order of the direct
// computation, so memoized aggregates are bit-identical to recomputed ones.
// The build records what one indexed LCA pass records: the sample and index
// broadcast and the comparisons.
func buildLCAMemo[K cmp.Ordered](c engine.Backend, data *engine.CachedData, s *candgen.Sample, ix *candgen.InvertedIndex, forEachLeaf leafKeys[K]) (*lcaMemo[K], error) {
	memo := &lcaMemo[K]{blocks: make([]lcaMemoBlock[K], data.NumBlocks())}
	perRow := 1
	if s != nil {
		perRow = s.Size()
	}
	comparisons := make([]int64, data.NumBlocks())
	err := data.Scan("miner/lca-memo", false, func(bi int, b *engine.TupleBlock) {
		mb := &memo.blocks[bi]
		n := b.NumRows()
		ids := make(map[K]int32, n)
		inc := make([]int32, 0, n*perRow) // key id per incidence, perRow per row
		comparisons[bi] = forEachLeaf(b, s, ix, func(row int, keys []K) {
			m := b.M[row]
			for _, k := range keys {
				id, ok := ids[k]
				if !ok {
					id = int32(len(mb.keys))
					ids[k] = id
					mb.keys = append(mb.keys, k)
					mb.sumM = append(mb.sumM, 0)
				}
				mb.sumM[id] += m
				inc = append(inc, id)
			}
		})
		// Counting sort of the incidences by key; rows stay ascending.
		nk := len(mb.keys)
		mb.rowStart = make([]int32, nk+1)
		for _, id := range inc {
			mb.rowStart[id+1]++
		}
		mb.count = make([]float64, nk)
		for id := range nk {
			mb.count[id] = float64(mb.rowStart[id+1])
			mb.rowStart[id+1] += mb.rowStart[id]
		}
		next := make([]int32, nk)
		copy(next, mb.rowStart)
		mb.rows = make([]int32, len(inc))
		for row := range n {
			for _, id := range inc[row*perRow : (row+1)*perRow] {
				mb.rows[next[id]] = int32(row)
				next[id]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if s != nil {
		var total int64
		for _, n := range comparisons {
			total += n
		}
		c.Reg().Add(metrics.CtrBroadcastBytes, ix.Bytes()+s.Bytes())
		c.Reg().Add(metrics.CtrLCAComparisons, total)
	}
	return memo, nil
}

// memoTableParts materializes this round's leaf aggregates from the memo and
// the query's current estimates into borrowed flat tables: one scan summing
// Mhat over each key's covered rows.
func memoTableParts(m *lcaMemo[uint64], c engine.Backend, data *engine.CachedData) (*engine.PColl[*cube.PackedTable], error) {
	out := make([]*cube.PackedTable, data.NumBlocks())
	err := data.Scan("miner/lca-replay", false, func(bi int, b *engine.TupleBlock) {
		mb := &m.blocks[bi]
		local := cube.BorrowTable(c, len(mb.keys))
		for ki, k := range mb.keys {
			local.Add(k, cube.Agg{SumM: mb.sumM[ki], SumMhat: mb.sumMhat(ki, b.Mhat), Count: mb.count[ki]})
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}

// memoStringParts is memoTableParts into per-block maps, for string rounds.
func memoStringParts(m *lcaMemo[string], c engine.Backend, data *engine.CachedData) (*engine.PColl[map[string]cube.Agg], error) {
	out := make([]map[string]cube.Agg, data.NumBlocks())
	err := data.Scan("miner/lca-replay", false, func(bi int, b *engine.TupleBlock) {
		mb := &m.blocks[bi]
		local := make(map[string]cube.Agg, len(mb.keys))
		for ki, k := range mb.keys {
			local[k] = cube.Agg{SumM: mb.sumM[ki], SumMhat: mb.sumMhat(ki, b.Mhat), Count: mb.count[ki]}
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}
