package engine

import (
	"fmt"
	"os"
	"sync"
	"time"

	"sirum/internal/metrics"
)

// Backend is the execution substrate the SIRUM dataflow runs on. The
// algorithm layer (miner, cube, candgen, explore) is written against this
// interface only. A Backend schedules: it runs stages and holds the
// registry and cache budget queries share. It holds no datasets: cached
// blocks belong to whoever cached them (a miner.Prep owns its session's
// canonical blocks, a query its fork). It does not price anything.
// Operators record the work they do on Reg(), and only SimBackend turns
// those counts into time (SimBackend.price; read it via SimTime).
// Two implementations are provided:
//
//   - SimBackend reproduces the thesis' distributed deployment in-process:
//     bounded real parallelism plus a simulated cluster clock, built by
//     list-scheduling task durations onto virtual executors and by pricing
//     the recorded shuffle, broadcast, job and disk counts. It is the
//     substrate for regenerating the paper's figures, which are reported in
//     simulated time.
//
//   - NativeBackend runs the same operators as fast as the host allows, with
//     work-stealing goroutine scheduling and no clock. It is the substrate
//     for serving real workloads.
//
// Both backends execute identical task code, so a mining job produces the
// same rule list on either; only the performance accounting differs.
//
// The interface has unexported methods: implementations live in this
// package, which keeps the cache/spill integration internal.
type Backend interface {
	// Name identifies the backend ("sim", "native").
	Name() string
	// Config returns the effective (defaulted) configuration.
	Config() Config
	// Reg returns the metrics registry operators record their work on. On a
	// concrete backend this is the substrate-lifetime registry; on a
	// QueryScope it is the per-query registry, a child of the backend's, so
	// every count lands once in each — query results snapshot the scope's.
	Reg() *metrics.Registry
	// RunStage executes n tasks (task(0) … task(n-1)) with real parallelism
	// and records one stage. Task panics are captured and re-raised on the
	// caller with stage context after all tasks finish.
	RunStage(name string, n int, task func(i int))
	// TotalMemory returns the backend-wide cache budget for cached blocks.
	TotalMemory() int64
	// Close releases spill files and other resources; the backend is
	// unusable afterwards.
	Close() error

	// runStage is RunStage counting the stage on reg, so a QueryScope can
	// schedule on its backend while recording on its own registry.
	runStage(reg *metrics.Registry, name string, n int, task func(i int))
	// spillPath returns a file path for spilling the named block. Names must
	// be unique per logical block across all CachedData sharing the backend.
	spillPath(name string) (string, error)
	// accountsBytes reports whether operators should compute per-record
	// byte sizes (false on the native path, where the sizing closures would
	// be pure overhead).
	accountsBytes() bool
	// arena returns the backend's fork-column arena (see columnArena).
	arena() *columnArena
}

// SimTime returns b's simulated cluster clock, reaching through a
// QueryScope to its backend; it is 0 on backends that keep no clock. Under
// concurrent queries the clock interleaves all queries' work, so per-query
// simulated durations are only meaningful for queries run serially.
func SimTime(b Backend) time.Duration {
	if s, ok := b.(*QueryScope); ok {
		b = s.base
	}
	if sim, ok := b.(*SimBackend); ok {
		return sim.SimTime()
	}
	return 0
}

// Compile-time interface checks.
var (
	_ Backend = (*SimBackend)(nil)
	_ Backend = (*NativeBackend)(nil)
	_ Backend = (*QueryScope)(nil)
)

// spiller lazily creates a temp directory for disk-backed blocks; it is
// shared by both backends.
type spiller struct {
	once sync.Once
	dir  string
	err  error
}

// path returns a file path for the named block, creating the spill dir on
// first use.
func (s *spiller) path(name string) (string, error) {
	s.once.Do(func() {
		s.dir, s.err = os.MkdirTemp("", "sirum-spill-*")
	})
	if s.err != nil {
		return "", s.err
	}
	return fmt.Sprintf("%s/%s.gob", s.dir, name), nil
}

// cleanup removes the spill directory if one was created.
func (s *spiller) cleanup() error {
	if s.dir != "" {
		return os.RemoveAll(s.dir)
	}
	return nil
}
