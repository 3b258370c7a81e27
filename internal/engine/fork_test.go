package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sirum/internal/metrics"
)

// testBlocks returns rows one-dimension tuples with measures 1..rows, split
// into parts blocks.
func testBlocks(rows, parts int) []*TupleBlock {
	dims := [][]int32{make([]int32, rows)}
	m := make([]float64, rows)
	for i := range m {
		m[i] = float64(i + 1)
	}
	return BlocksFromColumns(dims, m, nil, parts)
}

// TestForkSharesImmutableColumns pins the fork contract: dimension and
// measure columns are shared, estimate columns are private.
func TestForkSharesImmutableColumns(t *testing.T) {
	b := NewNativeBackend(Config{})
	defer b.Close()
	canonical, err := CacheTuples(b, testBlocks(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := canonical.Fork(b)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := canonical.Fork(b)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := f1.Get(0)
	b2, _ := f2.Get(0)
	c0, _ := canonical.Get(0)
	if &b1.M[0] != &c0.M[0] || &b2.M[0] != &c0.M[0] {
		t.Error("forks do not share the measure column")
	}
	if &b1.Mhat[0] == &b2.Mhat[0] {
		t.Error("forks share the estimate column")
	}
	for i, v := range b1.Mhat {
		if v != 1 {
			t.Fatalf("fork estimate[%d] = %v, want 1", i, v)
		}
	}
	b1.Mhat[0] = 42
	if b2.Mhat[0] != 1 {
		t.Error("mutating one fork leaked into the other")
	}
	if c0.Mhat != nil {
		t.Error("canonical blocks should have no estimate column")
	}
}

// TestConcurrentForkAndScan runs concurrent forks plus mutating scans on one
// shared canonical dataset — the engine-level shape of prepare-once /
// query-many (run under -race in CI).
func TestConcurrentForkAndScan(t *testing.T) {
	b := NewNativeBackend(Config{})
	defer b.Close()
	canonical, err := CacheTuples(b, testBlocks(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := canonical.Fork(NewQueryScope(b))
			if err != nil {
				errs[g] = err
				return
			}
			for round := 0; round < 3; round++ {
				errs[g] = f.Scan("test/scale", true, func(_ int, blk *TupleBlock) {
					for i := range blk.Mhat {
						blk.Mhat[i] *= 2
					}
				})
				if errs[g] != nil {
					return
				}
			}
			f.Scan("test/check", false, func(bi int, blk *TupleBlock) {
				for i, v := range blk.Mhat {
					if v != 8 {
						errs[g] = fmt.Errorf("goroutine %d block %d row %d: mhat %v, want 8", g, bi, i, v)
						return
					}
				}
			})
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryScopeIsolatesMetrics pins the per-query registry contract.
func TestQueryScopeIsolatesMetrics(t *testing.T) {
	b := NewSimBackend(Config{Executors: 2, CoresPerExecutor: 2})
	defer b.Close()
	s1 := NewQueryScope(b)
	s2 := NewQueryScope(b)
	s1.RunStage("one", 3, func(int) {})
	recordShuffle(s2, 100, 7)
	if got := s1.Reg().Counter("tasks"); got != 3 {
		t.Errorf("scope 1 tasks = %d, want 3", got)
	}
	if got := s2.Reg().Counter("tasks"); got != 0 {
		t.Errorf("scope 2 saw scope 1's tasks: %d", got)
	}
	if got := s2.Reg().Counter("shuffle_bytes"); got != 100 {
		t.Errorf("scope 2 shuffle bytes = %d", got)
	}
	if got := s1.Reg().Counter("shuffle_bytes"); got != 0 {
		t.Errorf("scope 1 saw scope 2's shuffle: %d", got)
	}
	// The backend keeps substrate-lifetime totals across both scopes.
	if got := b.Reg().Counter("tasks"); got != 3 {
		t.Errorf("backend tasks = %d, want 3", got)
	}
	if got := b.Reg().Counter("shuffle_bytes"); got != 100 {
		t.Errorf("backend shuffle bytes = %d", got)
	}
	// Operator counters and phases reach the backend live, before Finish.
	s1.Reg().Add(metrics.CtrCandidates, 5)
	s1.Reg().AddPhase(metrics.PhaseScaling, time.Millisecond)
	if got := b.Reg().Counter(metrics.CtrCandidates); got != 5 {
		t.Errorf("backend candidates before Finish = %d, want 5", got)
	}
	if got := b.Reg().Phase(metrics.PhaseScaling); got != time.Millisecond {
		t.Errorf("backend scaling phase before Finish = %v", got)
	}
	// Scopes never chain, and closing one is a no-op for the backend.
	if NewQueryScope(s1).Base() != b {
		t.Error("scope of a scope did not attach to the base backend")
	}
	if err := s1.Close(); err != nil {
		t.Errorf("scope close: %v", err)
	}
	s1.Finish()
	s2.Finish()

	// Eight concurrent scopes: every count and phase lands exactly once.
	fresh := NewSimBackend(Config{Executors: 2, CoresPerExecutor: 2})
	defer fresh.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := NewQueryScope(fresh)
			defer q.Finish()
			q.RunStage("q", 2, func(int) {})
			q.Reg().Add(metrics.CtrCandidates, 1)
			q.Reg().AddPhase(metrics.PhaseScaling, time.Millisecond)
			if got := q.Reg().Counter(metrics.CtrCandidates); got != 1 {
				t.Errorf("scope candidates = %d, want 1", got)
			}
		}()
	}
	wg.Wait()
	if got := fresh.Reg().Counter(metrics.CtrCandidates); got != 8 {
		t.Errorf("backend candidates = %d, want 8", got)
	}
	if got := fresh.Reg().Counter(metrics.CtrTasks); got != 16 {
		t.Errorf("backend tasks = %d, want 16", got)
	}
	if got := fresh.Reg().Phase(metrics.PhaseScaling); got != 8*time.Millisecond {
		t.Errorf("backend scaling phase = %v, want 8ms", got)
	}
}
