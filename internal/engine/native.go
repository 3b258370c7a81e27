package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sirum/internal/metrics"
)

// NativeBackend runs the SIRUM dataflow as fast as the host hardware allows:
// no simulated clock and no per-task duration measurement. A stage's tasks
// are executed by a fixed pool of workers with work stealing, so skewed
// partitions cannot idle cores the way static assignment would. Operators
// record the same counts as on SimBackend, except per-record byte sizes,
// which exist only to price the simulation and are not computed (see
// accountsBytes).
type NativeBackend struct {
	conf    Config
	reg     *metrics.Registry
	workers int
	spill   spiller
	cols    columnArena
}

// NewNativeBackend builds a native multicore backend from conf (zero fields
// get defaults). Only Partitions, MemoryPerExecutor, Executors and
// RealParallelism are consulted; the simulation knobs are ignored. When no
// partition count is given, the backend partitions for the host rather than
// for a virtual cluster: enough chunks that work stealing can balance skew,
// few enough that per-partition overheads stay negligible.
func NewNativeBackend(conf Config) *NativeBackend {
	if conf.Partitions <= 0 {
		rp := conf.RealParallelism
		if rp <= 0 {
			rp = runtime.NumCPU()
		}
		conf.Partitions = 4 * rp
	}
	conf = conf.withDefaults()
	return &NativeBackend{
		conf:    conf,
		reg:     metrics.NewRegistry(),
		workers: conf.RealParallelism,
	}
}

// Name identifies the backend.
func (b *NativeBackend) Name() string { return "native" }

// Config returns the effective (defaulted) configuration.
func (b *NativeBackend) Config() Config { return b.conf }

// Reg returns the metrics registry.
func (b *NativeBackend) Reg() *metrics.Registry { return b.reg }

// Close removes any spill files. The backend is unusable afterwards.
func (b *NativeBackend) Close() error { return b.spill.cleanup() }

// TotalMemory returns the cache budget, the same 60% storage fraction the
// simulator uses so memory-bounded configurations behave identically.
func (b *NativeBackend) TotalMemory() int64 {
	return int64(float64(b.conf.MemoryPerExecutor) * 0.6 * float64(b.conf.Executors))
}

// spillPath lazily creates the spill directory and returns a file path for
// the named block (the cache can still spill under an explicit memory
// budget).
func (b *NativeBackend) spillPath(name string) (string, error) { return b.spill.path(name) }

// accountsBytes: per-record byte sizing is simulation-only overhead.
func (b *NativeBackend) accountsBytes() bool { return false }

func (b *NativeBackend) arena() *columnArena { return &b.cols }

// RunStage executes n tasks on the worker pool (see runStage).
func (b *NativeBackend) RunStage(name string, n int, task func(i int)) {
	b.runStage(b.reg, name, n, task)
}

// runStage executes n tasks on the worker pool with work stealing and counts
// the stage on reg. Task panics are captured and re-raised on the caller with
// stage context after all tasks finish, matching SimBackend.
func (b *NativeBackend) runStage(reg *metrics.Registry, name string, n int, task func(i int)) {
	if n <= 0 {
		return
	}
	reg.Add(metrics.CtrTasks, int64(n))
	reg.Add(metrics.CtrStages, 1)

	// runTask shields the scheduler from task panics, reporting the payload.
	runTask := func(i int) (p any) {
		defer func() {
			if r := recover(); r != nil {
				p = r
			}
		}()
		task(i)
		return nil
	}

	w := b.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		// Like the concurrent path, run every task before re-raising the
		// first panic, so side effects (e.g. MapParts output slots) are as
		// complete as on SimBackend.
		firstIdx, firstPanic := -1, any(nil)
		for i := 0; i < n; i++ {
			if p := runTask(i); p != nil && firstPanic == nil {
				firstIdx, firstPanic = i, p
			}
		}
		if firstPanic != nil {
			panic(fmt.Sprintf("engine: task %d of stage %q panicked: %v", firstIdx, name, firstPanic))
		}
		return
	}

	// Work-stealing range scheduler: each worker owns a half-open index
	// range packed into one atomic word ([next,end) as two uint32 halves).
	// Workers claim from their own range with a CAS increment; a worker
	// whose range drains steals the upper half of the fullest remaining
	// range. Ownership transfers atomically, so every index runs exactly
	// once.
	queues := make([]paddedQueue, w)
	per, rem := n/w, n%w
	start := 0
	for i := range queues {
		cnt := per
		if i < rem {
			cnt++
		}
		queues[i].v.Store(packRange(start, start+cnt))
		start += cnt
	}

	type taskPanic struct {
		idx int
		val any
	}
	panics := make([]*taskPanic, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for {
				i, ok := claimTask(queues, wi)
				if !ok {
					return
				}
				if p := runTask(i); p != nil && panics[wi] == nil {
					panics[wi] = &taskPanic{idx: i, val: p}
				}
			}
		}(wi)
	}
	wg.Wait()
	first := (*taskPanic)(nil)
	for _, p := range panics {
		if p != nil && (first == nil || p.idx < first.idx) {
			first = p
		}
	}
	if first != nil {
		panic(fmt.Sprintf("engine: task %d of stage %q panicked: %v", first.idx, name, first.val))
	}
}

// paddedQueue keeps each worker's range word on its own cache line to avoid
// false sharing between the per-worker CAS loops.
type paddedQueue struct {
	v atomic.Uint64
	_ [56]byte
}

func packRange(next, end int) uint64 { return uint64(next)<<32 | uint64(uint32(end)) }

func unpackRange(q uint64) (next, end int) { return int(q >> 32), int(uint32(q)) }

// claimTask returns the next task index for worker self: first from its own
// range, then by stealing the upper half of the fullest other range. ok is
// false when no work is visible anywhere.
func claimTask(queues []paddedQueue, self int) (int, bool) {
	for {
		q := queues[self].v.Load()
		next, end := unpackRange(q)
		if next >= end {
			break
		}
		if queues[self].v.CompareAndSwap(q, packRange(next+1, end)) {
			return next, true
		}
	}
	for {
		victim, best := -1, 0
		var vq uint64
		for j := range queues {
			if j == self {
				continue
			}
			q := queues[j].v.Load()
			n, e := unpackRange(q)
			if e-n > best {
				best, victim, vq = e-n, j, q
			}
		}
		if victim < 0 {
			return 0, false
		}
		n, e := unpackRange(vq)
		mid := n + (e-n)/2 // victim keeps [n,mid), thief takes [mid,e)
		if queues[victim].v.CompareAndSwap(vq, packRange(n, mid)) {
			if mid+1 < e {
				queues[self].v.Store(packRange(mid+1, e))
			}
			return mid, true
		}
		// Lost the race for the victim's range; rescan.
	}
}
