package engine

import "sync"

// columnArena recycles the per-query fork columns (the Mhat estimate arrays
// CachedData.Fork hands every query). Prepared sessions answer many queries
// over identically partitioned blocks, so the same column sizes come back
// query after query; without reuse every fork allocates and zero-fills a
// fresh []float64 per block. Each concrete backend owns one arena; query
// scopes borrow from it and return their borrows in Finish, so a column is
// only ever owned by one in-flight query.
type columnArena struct {
	mu      sync.Mutex
	free    [][]float64
	scratch []Scratch
}

// arenaMaxFree bounds the free list so a burst of unusually wide forks
// cannot pin memory forever; surplus columns fall back to the GC.
const arenaMaxFree = 256

// scratchMaxFree bounds the scratch free list the same way. Scratch
// structures (the cube's PackedTables) are far larger than fork columns —
// a few per partition per in-flight query — so the cap is much smaller.
const scratchMaxFree = 64

// Scratch is a recyclable aggregation structure a query borrows from the
// backend arena: cleared between uses but keeping its backing capacity, so a
// prepared session's steady-state rounds stop allocating. The cube's
// PackedTable is the canonical implementation.
type Scratch interface {
	// Reset clears the contents, keeping the backing capacity.
	Reset()
	// ScratchSize reports the current capacity in entries, the best-fit key
	// for reuse.
	ScratchSize() int
}

// get returns a length-n column, reusing the smallest free column that fits
// (best fit keeps big columns available for big blocks). The contents are
// unspecified; callers must initialise it.
func (a *columnArena) get(n int) []float64 {
	a.mu.Lock()
	best := -1
	for i, c := range a.free {
		if cap(c) >= n && (best < 0 || cap(c) < cap(a.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		col := a.free[best]
		last := len(a.free) - 1
		a.free[best] = a.free[last]
		a.free[last] = nil
		a.free = a.free[:last]
		a.mu.Unlock()
		return col[:n]
	}
	a.mu.Unlock()
	return make([]float64, n)
}

// put returns columns to the free list. Nil or zero-capacity entries are
// skipped; beyond arenaMaxFree the surplus is left to the GC.
func (a *columnArena) put(cols [][]float64) {
	a.mu.Lock()
	for _, c := range cols {
		if cap(c) == 0 {
			continue
		}
		if len(a.free) >= arenaMaxFree {
			break
		}
		a.free = append(a.free, c[:0])
	}
	a.mu.Unlock()
}

// getScratch returns a free scratch structure, best fit for hint entries: the
// smallest free structure with capacity ≥ hint, or — when none is large
// enough — the largest available, which the caller grows once instead of
// allocating from nothing. Returns nil when the free list is empty.
func (a *columnArena) getScratch(hint int) Scratch {
	a.mu.Lock()
	best := -1
	for i, s := range a.scratch {
		sz := s.ScratchSize()
		if best < 0 {
			best = i
			continue
		}
		bz := a.scratch[best].ScratchSize()
		if sz >= hint {
			if bz < hint || sz < bz {
				best = i
			}
		} else if bz < hint && sz > bz {
			best = i
		}
	}
	if best < 0 {
		a.mu.Unlock()
		return nil
	}
	s := a.scratch[best]
	last := len(a.scratch) - 1
	a.scratch[best] = a.scratch[last]
	a.scratch[last] = nil
	a.scratch = a.scratch[:last]
	a.mu.Unlock()
	return s
}

// putScratch resets s and returns it to the free list; beyond scratchMaxFree
// the surplus is left to the GC. The Reset runs outside the lock — it memclrs
// the whole backing capacity.
func (a *columnArena) putScratch(s Scratch) {
	if s == nil {
		return
	}
	s.Reset()
	a.mu.Lock()
	if len(a.scratch) < scratchMaxFree {
		a.scratch = append(a.scratch, s)
	}
	a.mu.Unlock()
}

// BorrowScratch takes a recycled scratch structure of roughly hint entries
// from b's arena, tracked by the query scope for return at Finish. It returns
// nil — and the caller allocates fresh, registering via TrackScratch — when b
// is not a query scope or the free list is empty. The two-call shape (instead
// of a make-callback) keeps the borrow allocation-free: an escaping closure
// argument would heap-allocate on every call.
func BorrowScratch(b Backend, hint int) Scratch {
	if s, ok := b.(*QueryScope); ok {
		return s.borrowScratch(hint)
	}
	return nil
}

// TrackScratch registers a freshly allocated scratch structure with b's query
// scope so Finish recycles it into the arena; a no-op on bare backends, whose
// callers drop everything with the run.
func TrackScratch(b Backend, s Scratch) {
	if qs, ok := b.(*QueryScope); ok {
		qs.trackScratch(s)
	}
}

// ReleaseScratch returns s to the arena immediately — before scope Finish —
// so later rounds of the same query reuse its backing arrays. A no-op on bare
// backends.
func ReleaseScratch(b Backend, s Scratch) {
	if qs, ok := b.(*QueryScope); ok {
		qs.releaseScratch(s)
	}
}

// BorrowColumn returns a length-n float64 column with unspecified contents.
// Query scopes borrow from their backend's arena (tracked, returned on
// Finish, so the column must not outlive the query); a bare backend — cold
// runs that fork once and drop everything with the substrate — just
// allocates. Forks take their estimate columns here, lattice replays their
// per-query Σm̂ vector.
func BorrowColumn(b Backend, n int) []float64 {
	if s, ok := b.(*QueryScope); ok {
		return s.borrowColumn(n)
	}
	return make([]float64, n)
}

// FillFloat64 sets every element of s to v with a doubling block copy —
// runtime-assisted memmove instead of a per-element store loop.
func FillFloat64(s []float64, v float64) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for filled := 1; filled < len(s); filled *= 2 {
		copy(s[filled:], s[:filled])
	}
}
