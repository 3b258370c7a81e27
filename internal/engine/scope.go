package engine

import (
	"sync"

	"sirum/internal/metrics"
)

// QueryScope is a per-query view of a shared Backend. It schedules on the
// underlying backend and shares its spill files, cache budget and arena, but
// owns a private metrics registry, so counters and phase durations recorded
// by one query never mix with another query running concurrently on the
// same backend. The private registry is a child of the backend's: every
// recording also lands, once and live, in the backend's lifetime totals,
// which is also what SimBackend prices.
//
// Closing a scope is a no-op: a scope is a view, and tearing down the shared
// backend is its owner's job.
type QueryScope struct {
	base Backend
	reg  *metrics.Registry

	// borrowed tracks fork columns taken from the backend arena; Finish
	// returns them. The mutex covers concurrent borrows from parallel
	// fork stages, not concurrent use of the columns themselves — each
	// borrowed column belongs to exactly one block of this query's fork.
	borrowMu sync.Mutex
	borrowed [][]float64
	// scratch tracks live Scratch borrows (see BorrowScratch) the same way:
	// each structure belongs to exactly one partition of one stage of this
	// query, so the mutex only guards the bookkeeping. ReleaseScratch returns
	// one early; Finish sweeps the rest.
	scratch []Scratch
}

// NewQueryScope wraps b with a fresh private registry. Wrapping another
// scope attaches to its underlying backend, so scopes never chain.
func NewQueryScope(b Backend) *QueryScope {
	if s, ok := b.(*QueryScope); ok {
		b = s.base
	}
	return &QueryScope{base: b, reg: b.Reg().Child()}
}

// Base returns the shared backend the scope schedules on.
func (s *QueryScope) Base() Backend { return s.base }

// Name identifies the underlying backend.
func (s *QueryScope) Name() string { return s.base.Name() }

// Config returns the underlying backend's effective configuration.
func (s *QueryScope) Config() Config { return s.base.Config() }

// Reg returns the query-private metrics registry.
func (s *QueryScope) Reg() *metrics.Registry { return s.reg }

// RunStage schedules on the shared backend and counts the stage on the
// query's registry.
func (s *QueryScope) RunStage(name string, n int, task func(i int)) {
	s.base.runStage(s.reg, name, n, task)
}

func (s *QueryScope) runStage(reg *metrics.Registry, name string, n int, task func(i int)) {
	s.base.runStage(reg, name, n, task)
}

// TotalMemory returns the shared cache budget.
func (s *QueryScope) TotalMemory() int64 { return s.base.TotalMemory() }

// Pool returns the shared prepared-dataset pool.
func (s *QueryScope) Pool() *DataPool { return s.base.Pool() }

// Finish returns the query's arena borrows — fork columns and scratch
// structures — to the shared backend. Call once when the query completes.
func (s *QueryScope) Finish() {
	s.borrowMu.Lock()
	cols := s.borrowed
	s.borrowed = nil
	scr := s.scratch
	s.scratch = nil
	s.borrowMu.Unlock()
	if len(cols) > 0 {
		s.base.arena().put(cols)
	}
	for _, sc := range scr {
		s.base.arena().putScratch(sc)
	}
}

// Close is a no-op: the scope's owner does not own the backend.
func (s *QueryScope) Close() error { return nil }

func (s *QueryScope) spillPath(name string) (string, error) { return s.base.spillPath(name) }

func (s *QueryScope) accountsBytes() bool { return s.base.accountsBytes() }

func (s *QueryScope) arena() *columnArena { return s.base.arena() }

// borrowColumn takes a length-n column from the backend arena and records it
// for return at Finish. The query's fork owns the column exclusively until
// then: the fork is dropped (mineScoped defers q.data.Drop before the
// caller's deferred Finish), and nothing retains fork blocks past the query.
func (s *QueryScope) borrowColumn(n int) []float64 {
	col := s.base.arena().get(n)
	s.borrowMu.Lock()
	s.borrowed = append(s.borrowed, col)
	s.borrowMu.Unlock()
	return col
}

// borrowScratch takes a recycled scratch structure from the backend arena and
// records it for return at Finish; nil when the arena has none free (the
// caller allocates and registers via trackScratch). Borrow traffic is booked
// on the query registry so the arena's hit rate is observable per query.
func (s *QueryScope) borrowScratch(hint int) Scratch {
	s.reg.Add(metrics.CtrScratchBorrows, 1)
	sc := s.base.arena().getScratch(hint)
	if sc == nil {
		return nil
	}
	s.reg.Add(metrics.CtrScratchReuses, 1)
	s.borrowMu.Lock()
	s.scratch = append(s.scratch, sc)
	s.borrowMu.Unlock()
	return sc
}

// trackScratch records a freshly allocated scratch structure for return at
// Finish.
func (s *QueryScope) trackScratch(sc Scratch) {
	if sc == nil {
		return
	}
	s.borrowMu.Lock()
	s.scratch = append(s.scratch, sc)
	s.borrowMu.Unlock()
}

// releaseScratch drops sc from the tracked borrows and returns it to the
// arena so the same query's later rounds can reuse it. Unknown structures are
// returned to the arena anyway — they were headed there at Finish regardless.
func (s *QueryScope) releaseScratch(sc Scratch) {
	if sc == nil {
		return
	}
	s.borrowMu.Lock()
	for i, have := range s.scratch {
		if have == sc {
			last := len(s.scratch) - 1
			s.scratch[i] = s.scratch[last]
			s.scratch[last] = nil
			s.scratch = s.scratch[:last]
			break
		}
	}
	s.borrowMu.Unlock()
	s.base.arena().putScratch(sc)
}
