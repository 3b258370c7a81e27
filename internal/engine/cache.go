package engine

import (
	"encoding/gob"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"sirum/internal/metrics"
)

// TupleBlock is one cached partition of the mining input: a columnar slice
// of tuples with their measure and live estimate columns. Rule coverage is
// not kept per tuple; an RCT scaler's fragments hold each tuple's row.
// Exported fields make blocks gob-encodable for the spill path. Once blocks
// may spill, all mutation must go through the block (a reloaded block no
// longer aliases the arrays it was built from).
type TupleBlock struct {
	Start int       // global row offset of this block
	Dims  [][]int32 // Dims[j][i] = dimension j of local row i
	M     []float64 // transformed measure
	Mhat  []float64 // current estimates
}

// NumRows returns the block's row count.
func (b *TupleBlock) NumRows() int { return len(b.M) }

// Bytes estimates the block's memory footprint. Canonical prepare-once
// blocks carry no estimate column (Mhat is allocated per query by Fork), so
// only the columns actually present are charged against the cache budget.
func (b *TupleBlock) Bytes() int64 {
	rows := int64(b.NumRows())
	return rows*int64(len(b.Dims))*4 + int64(len(b.M))*8 + int64(len(b.Mhat))*8
}

// CachedData is a buffer pool over TupleBlocks with a backend-wide byte
// budget. Blocks beyond the budget are spilled to disk (gob) and faulted
// back in on access, evicting the least-recently-used resident block —
// write-back, since estimate columns mutate between scans. It reproduces
// the fits-in-memory vs. re-reads-from-HDFS behaviour of Section 4.5: spills
// and reloads are recorded on the backend's registry (metrics.CtrSpillBytes,
// metrics.CtrSpillReads), which Figures 4.3 and 4.4 report.
type CachedData struct {
	b      Backend
	budget int64
	uid    int64 // distinguishes spill files of CachedData sharing a backend

	// allResident short-circuits the buffer pool: when every block fits in
	// the budget nothing can ever spill, so Get is a plain array read with
	// no locking. This is the common case for all experiments except the
	// memory-pressure ones.
	allResident bool

	mu       sync.Mutex
	blocks   []*TupleBlock // nil while spilled
	files    []string
	sizes    []int64
	dirty    []bool
	pins     []int // pinned blocks are never evicted (scan in progress)
	lastUsed []int64
	useTick  int64
	resident int64
	dropped  bool
}

// cachedDataSeq hands out the uids that keep spill file names of distinct
// CachedData apart: one backend hosts the canonical blocks of every session
// prepared on it and each query's fork, which would otherwise collide on
// block-<i> names.
var cachedDataSeq atomic.Int64

// CacheTuples registers blocks with the backend's cache budget. Blocks are
// admitted in order; once the budget fills, later blocks and faulted-in
// blocks trigger evictions.
func CacheTuples(b Backend, blocks []*TupleBlock) (*CachedData, error) {
	cd := &CachedData{
		b:        b,
		budget:   b.TotalMemory(),
		uid:      cachedDataSeq.Add(1),
		blocks:   make([]*TupleBlock, len(blocks)),
		files:    make([]string, len(blocks)),
		sizes:    make([]int64, len(blocks)),
		dirty:    make([]bool, len(blocks)),
		pins:     make([]int, len(blocks)),
		lastUsed: make([]int64, len(blocks)),
	}
	var total int64
	for i, b := range blocks {
		cd.sizes[i] = b.Bytes()
		total += cd.sizes[i]
	}
	if total <= cd.budget {
		cd.allResident = true
		copy(cd.blocks, blocks)
		cd.resident = total
		return cd, nil
	}
	for i, b := range blocks {
		if err := cd.admit(i, b, true); err != nil {
			return nil, err
		}
	}
	return cd, nil
}

// NumBlocks returns the number of registered blocks.
func (cd *CachedData) NumBlocks() int { return len(cd.sizes) }

// ResidentBytes returns the bytes currently held in memory.
func (cd *CachedData) ResidentBytes() int64 {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	return cd.resident
}

// Get returns block i, faulting it in from disk if spilled. The returned
// block may be evicted by a later Get; callers scan one block at a time and
// must not retain references across Get calls of other blocks.
func (cd *CachedData) Get(i int) (*TupleBlock, error) {
	if cd.allResident {
		return cd.blocks[i], nil
	}
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if cd.dropped {
		return nil, fmt.Errorf("engine: read from dropped cache")
	}
	cd.useTick++
	cd.lastUsed[i] = cd.useTick
	if cd.blocks[i] != nil {
		return cd.blocks[i], nil
	}
	b, err := cd.load(i)
	if err != nil {
		return nil, err
	}
	if err := cd.admitLocked(i, b, false); err != nil {
		return nil, err
	}
	return b, nil
}

// MarkDirty records that block i's estimate column changed and must be
// written back if evicted.
func (cd *CachedData) MarkDirty(i int) {
	if cd.allResident {
		return // nothing ever spills, so dirtiness is irrelevant
	}
	cd.mu.Lock()
	cd.dirty[i] = true
	cd.mu.Unlock()
}

func (cd *CachedData) admit(i int, b *TupleBlock, initial bool) error {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	cd.useTick++
	cd.lastUsed[i] = cd.useTick
	return cd.admitLocked(i, b, initial)
}

// admitLocked makes room for block i and installs it.
func (cd *CachedData) admitLocked(i int, b *TupleBlock, initial bool) error {
	for cd.resident+cd.sizes[i] > cd.budget {
		victim := -1
		for j := range cd.blocks {
			if j == i || cd.blocks[j] == nil || cd.pins[j] > 0 {
				continue
			}
			if victim < 0 || cd.lastUsed[j] < cd.lastUsed[victim] {
				victim = j
			}
		}
		if victim < 0 {
			// Nothing evictable: a single block larger than the budget is
			// admitted anyway (it must be scannable), matching caches that
			// overshoot rather than fail.
			break
		}
		if err := cd.evictLocked(victim); err != nil {
			return err
		}
	}
	cd.blocks[i] = b
	cd.resident += cd.sizes[i]
	if initial {
		cd.dirty[i] = true // never persisted yet
	}
	return nil
}

func (cd *CachedData) evictLocked(j int) error {
	b := cd.blocks[j]
	if cd.dirty[j] {
		if err := cd.store(j, b); err != nil {
			return err
		}
		cd.dirty[j] = false
	}
	cd.blocks[j] = nil
	cd.resident -= cd.sizes[j]
	return nil
}

// store spills block j to disk (a real gob encode) and records the write.
func (cd *CachedData) store(j int, b *TupleBlock) error {
	path := cd.files[j]
	if path == "" {
		var err error
		path, err = cd.b.spillPath(fmt.Sprintf("data%d-block-%d", cd.uid, j))
		if err != nil {
			return err
		}
		cd.files[j] = path
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("engine: spilling block %d: %w", j, err)
	}
	if err := gob.NewEncoder(f).Encode(b); err != nil {
		f.Close()
		return fmt.Errorf("engine: encoding block %d: %w", j, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	cd.b.Reg().Add(metrics.CtrSpillBytes, cd.sizes[j])
	return nil
}

// load faults block j back in from disk and records the read.
func (cd *CachedData) load(j int) (*TupleBlock, error) {
	if cd.files[j] == "" {
		return nil, fmt.Errorf("engine: block %d neither resident nor spilled", j)
	}
	f, err := os.Open(cd.files[j])
	if err != nil {
		return nil, fmt.Errorf("engine: reloading block %d: %w", j, err)
	}
	defer f.Close()
	var b TupleBlock
	if err := gob.NewDecoder(f).Decode(&b); err != nil {
		return nil, fmt.Errorf("engine: decoding block %d: %w", j, err)
	}
	cd.b.Reg().Add(metrics.CtrSpillReads, cd.sizes[j])
	return &b, nil
}

// Acquire returns block i pinned: the block cannot be evicted until the
// matching Release, so concurrent scan tasks can safely read and mutate it.
func (cd *CachedData) Acquire(i int) (*TupleBlock, error) {
	if cd.allResident {
		return cd.blocks[i], nil
	}
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if cd.dropped {
		return nil, fmt.Errorf("engine: read from dropped cache")
	}
	cd.useTick++
	cd.lastUsed[i] = cd.useTick
	if cd.blocks[i] != nil {
		cd.pins[i]++
		return cd.blocks[i], nil
	}
	b, err := cd.load(i)
	if err != nil {
		return nil, err
	}
	if err := cd.admitLocked(i, b, false); err != nil {
		return nil, err
	}
	cd.pins[i]++
	return b, nil
}

// Release unpins block i (must pair with a successful Acquire).
func (cd *CachedData) Release(i int) {
	if cd.allResident {
		return
	}
	cd.mu.Lock()
	if cd.pins[i] > 0 {
		cd.pins[i]--
	}
	cd.mu.Unlock()
}

// Scan visits every block in order, whether resident or spilled, running f
// on the backend's scheduler (one task per block). Blocks are pinned for
// the duration of their task, so concurrent tasks cannot evict each other's
// working blocks mid-mutation. If mutate is true all blocks are marked
// dirty. Errors from faulting abort the scan.
func (cd *CachedData) Scan(name string, mutate bool, f func(i int, b *TupleBlock)) error {
	var firstErr error
	var errMu sync.Mutex
	cd.b.RunStage(name, cd.NumBlocks(), func(i int) {
		b, err := cd.Acquire(i)
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		defer cd.Release(i)
		f(i, b)
		if mutate {
			cd.MarkDirty(i)
		}
	})
	return firstErr
}

// Fork returns a per-query view of the data: new blocks that share the
// immutable dimension and measure columns of cd's blocks but own a fresh
// estimate column initialised to 1 (the iterative-scaling starting point).
// Forks are what make prepare-once/query-many safe: concurrent queries
// scale their own Mhat columns while reading one shared copy of the data.
// The fork is registered against b's cache budget (typically a per-query
// scope of the backend holding cd). Estimate columns
// are borrowed from the backend arena when b is a query scope; the scope's
// Finish returns them, which is safe because forks never outlive their query.
func (cd *CachedData) Fork(b Backend) (*CachedData, error) {
	blocks := make([]*TupleBlock, cd.NumBlocks())
	for i := range blocks {
		src, err := cd.Acquire(i)
		if err != nil {
			return nil, err
		}
		mhat := BorrowColumn(b, src.NumRows())
		FillFloat64(mhat, 1)
		blocks[i] = &TupleBlock{Start: src.Start, Dims: src.Dims, M: src.M, Mhat: mhat}
		cd.Release(i)
	}
	return CacheTuples(b, blocks)
}

// Drop releases the spill files (if any) and retires the cache. Spill-backed
// reads on a dropped cache fail with an error; when every block was
// resident the blocks remain readable (nothing to reclaim eagerly — forks
// and late readers sharing their columns stay valid, and the garbage
// collector does the rest). An owner shared by concurrent readers must keep
// Drop from overlapping their reads: miner.Prep drops its canonical blocks
// only while no query is forking them, and a fork keeps the columns it read.
func (cd *CachedData) Drop() {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if cd.dropped {
		return
	}
	cd.dropped = true
	for j, f := range cd.files {
		if f != "" {
			os.Remove(f)
			cd.files[j] = ""
		}
	}
	if !cd.allResident {
		for j := range cd.blocks {
			cd.blocks[j] = nil
		}
		cd.resident = 0
	}
}

// BlocksFromColumns splits aligned columnar data into blocks of the given
// partition count. mhat may be nil for canonical (prepare-once) blocks whose
// estimate columns are allocated per query by Fork.
func BlocksFromColumns(dims [][]int32, m, mhat []float64, parts int) []*TupleBlock {
	n := len(m)
	if parts <= 0 {
		parts = 1
	}
	if parts > n && n > 0 {
		parts = n
	}
	if n == 0 {
		return []*TupleBlock{{Dims: make([][]int32, len(dims))}}
	}
	per := (n + parts - 1) / parts
	var out []*TupleBlock
	for start := 0; start < n; start += per {
		end := min(start+per, n)
		b := &TupleBlock{Start: start, M: m[start:end]}
		if mhat != nil {
			b.Mhat = mhat[start:end]
		}
		b.Dims = make([][]int32, len(dims))
		for j := range dims {
			b.Dims[j] = dims[j][start:end]
		}
		out = append(out, b)
	}
	return out
}
