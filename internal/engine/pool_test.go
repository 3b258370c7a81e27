package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sirum/internal/metrics"
)

func poolBlocks(rows, parts int) []*TupleBlock {
	dims := [][]int32{make([]int32, rows)}
	m := make([]float64, rows)
	for i := range m {
		m[i] = float64(i + 1)
	}
	return BlocksFromColumns(dims, m, nil, parts)
}

// spillingBackend returns a native backend whose cache budget forces every
// CachedData to spill, so Drop has an observable effect (reads fail).
func spillingBackend() *NativeBackend {
	return NewNativeBackend(Config{Executors: 1, MemoryPerExecutor: 1})
}

// scannable reports whether cd's blocks are still readable (spilled blocks
// of a dropped cache are not).
func scannable(cd *CachedData) error {
	return cd.Scan("test/scannable", false, func(int, *TupleBlock) {})
}

func TestDataPoolLRUEviction(t *testing.T) {
	b := NewNativeBackend(Config{})
	defer b.Close()
	p := b.Pool()
	p.SetLimit(2)
	for i := 0; i < 3; i++ {
		cd, err := CacheTuples(b, poolBlocks(8, 2))
		if err != nil {
			t.Fatal(err)
		}
		_, ref := p.Put(fmt.Sprintf("d%d", i), cd)
		ref.Release()
	}
	if p.Len() != 2 {
		t.Fatalf("pool holds %d entries, want 2", p.Len())
	}
	if _, _, ok := p.Acquire("d0"); ok {
		t.Error("d0 should have been evicted as LRU")
	}
	for _, id := range []string{"d1", "d2"} {
		cd, ref, ok := p.Acquire(id)
		if !ok {
			t.Fatalf("%s missing from pool", id)
		}
		if cd.NumBlocks() != 2 {
			t.Errorf("%s has %d blocks", id, cd.NumBlocks())
		}
		ref.Release()
	}
}

func TestDataPoolReferencedEntriesSurviveEviction(t *testing.T) {
	b := NewNativeBackend(Config{})
	defer b.Close()
	p := b.Pool()
	p.SetLimit(1)
	cd0, _ := CacheTuples(b, poolBlocks(4, 1))
	_, held := p.Put("held", cd0) // reference kept
	cd1, _ := CacheTuples(b, poolBlocks(4, 1))
	_, ref1 := p.Put("next", cd1)
	ref1.Release()
	_, ref2, ok := p.Acquire("held")
	if !ok {
		t.Fatal("referenced entry was evicted")
	}
	ref2.Release()
	held.Release()
	held.Release() // double release is a no-op
}

func TestDataPoolPutRaceConvergesOnOneCopy(t *testing.T) {
	b := NewNativeBackend(Config{})
	defer b.Close()
	p := b.Pool()
	cd0, _ := CacheTuples(b, poolBlocks(4, 1))
	cd1, _ := CacheTuples(b, poolBlocks(4, 1))
	got0, _ := p.Put("same", cd0)
	got1, _ := p.Put("same", cd1)
	if got0 != cd0 {
		t.Error("first Put did not install its CachedData")
	}
	if got1 != cd0 {
		t.Error("second Put did not converge on the existing entry")
	}
}

// TestDataPoolRePutSameDataKeepsEntryAlive is the regression test for the
// identity re-Put bug: Putting the *same* CachedData already live under an
// id must not treat the caller as the loser of a re-preparation race — the
// old code called cd.Drop() on it, deleting the live entry's spill files.
func TestDataPoolRePutSameDataKeepsEntryAlive(t *testing.T) {
	b := spillingBackend()
	defer b.Close()
	p := b.Pool()
	cd, err := CacheTuples(b, poolBlocks(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	got0, ref0 := p.Put("d", cd)
	got1, ref1 := p.Put("d", cd) // identity re-Put of the pooled CachedData
	if got0 != cd || got1 != cd {
		t.Fatal("identity re-Put did not return the pooled CachedData")
	}
	if err := scannable(cd); err != nil {
		t.Fatalf("pooled entry unreadable after identity re-Put (spill files dropped): %v", err)
	}
	ref0.Release()
	ref1.Release()
	// Both references released and the entry is still live: it must remain
	// readable until removed or evicted.
	if err := scannable(cd); err != nil {
		t.Fatalf("live entry unreadable after releases: %v", err)
	}
	p.Remove("d")
	if err := scannable(cd); err == nil {
		t.Error("removed unreferenced entry still readable: spill files leaked")
	}
}

// TestDataPoolStaleReleaseCannotTouchReplacement is the regression test for
// the id-keyed release bug: after Remove + Put reuse an id, a release of the
// *old* entry's reference must not decrement the replacement's refcount —
// with id-keyed Release the pool could then evict a dataset another query
// still holds.
func TestDataPoolStaleReleaseCannotTouchReplacement(t *testing.T) {
	b := spillingBackend()
	defer b.Close()
	p := b.Pool()

	cd1, err := CacheTuples(b, poolBlocks(32, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, oldRef := p.Put("d", cd1)
	p.Remove("d") // dead but referenced: lives until oldRef releases

	cd2, err := CacheTuples(b, poolBlocks(32, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, newRef := p.Put("d", cd2) // same id, new entry, held by a query

	oldRef.Release() // stale release: must hit cd1's entry, not cd2's
	if err := scannable(cd1); err == nil {
		t.Error("dead entry kept its spill files after its last release")
	}

	// The replacement must still be referenced: a Remove now may not drop it
	// out from under the holder.
	p.Remove("d")
	if err := scannable(cd2); err != nil {
		t.Fatalf("replacement entry dropped while a query still held it: %v", err)
	}
	newRef.Release()
	if err := scannable(cd2); err == nil {
		t.Error("removed replacement still readable after final release")
	}
}

// TestDataPoolConcurrentPutAcquireRemoveRelease exercises the full lifecycle
// from many goroutines (run under -race in CI): ids are continually removed
// and re-put while readers hold and release references, and no reader may
// ever observe a dropped entry through a reference it holds.
func TestDataPoolConcurrentPutAcquireRemoveRelease(t *testing.T) {
	b := spillingBackend()
	defer b.Close()
	p := b.Pool()
	p.SetLimit(4)

	const goroutines = 8
	const rounds = 40
	ids := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				id := ids[(g+round)%len(ids)]
				cd, ref, ok := p.Acquire(id)
				if !ok {
					fresh, err := CacheTuples(b, poolBlocks(16, 2))
					if err != nil {
						errs[g] = err
						return
					}
					cd, ref = p.Put(id, fresh)
				}
				// While the reference is held the data must stay readable,
				// no matter what other goroutines remove or re-put.
				if err := scannable(cd); err != nil {
					errs[g] = fmt.Errorf("round %d id %s: %w", round, id, err)
					ref.Release()
					return
				}
				if round%5 == g%5 {
					p.Remove(id)
				}
				ref.Release()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkSharesImmutableColumns pins the fork contract: dimension and
// measure columns are shared, estimate columns are private.
func TestForkSharesImmutableColumns(t *testing.T) {
	b := NewNativeBackend(Config{})
	defer b.Close()
	canonical, err := CacheTuples(b, poolBlocks(10, 2))
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
	canonical, err := CacheTuples(b, poolBlocks(64, 4))
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
	if b.Pool() != s2.Pool() {
		t.Error("scope does not share the backend pool")
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
