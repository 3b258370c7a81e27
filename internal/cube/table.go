package cube

import (
	"fmt"

	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// TableRecordBytes is the serialized size of one PackedTable slot — the
// 8-byte packed key plus the three float64 aggregate fields — and the honest
// per-record shuffle charge for the table representation (not the string
// key's 4·d bytes — shuffle cost figures stay honest across pipelines).
const TableRecordBytes = 8 + 24

// minTableCap is the smallest backing capacity; always a power of two.
const minTableCap = 16

// maxLoadNum/maxLoadDen cap the load factor at 3/4 before doubling.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

// PackedTable is a flat open-addressing hash table from packed rule keys to
// their aggregates: power-of-two []uint64 keys plus a parallel []Agg slot
// array, linear probing, in-place merge on hit. Where a Go map is rebuilt and
// rehashed every map/shuffle/merge round, a PackedTable Resets to empty
// keeping its backing arrays, so a warm multi-stage explore runs the whole
// round structure with zero steady-state allocation.
//
// Key 0 (all attributes at dictionary code 0) is a valid packed rule, so the
// empty-slot sentinel 0 gets a sidecar: hasZero/zero hold that one entry out
// of line. The probe hash is a splitmix64 finalizer — deliberately not the
// engine's mix64 partition hash. After ShuffleTables every key in a
// partition satisfies mix64(k) % parts == p; probing with the same function
// would pile those keys onto a fraction of the slots.
//
// A PackedTable is not safe for concurrent mutation; the pipeline gives each
// partition task its own table. Tables are recycled through the backend
// arena via BorrowTable/Release (the engine.Scratch contract), so concurrent
// queries on one backend borrow disjoint tables.
type PackedTable struct {
	keys    []uint64 // 0 = empty slot
	aggs    []Agg    // aggs[i] is live iff keys[i] != 0; stale otherwise
	mask    uint64   // len(keys) - 1
	n       int      // live entries with non-zero keys
	hasZero bool
	zero    Agg
}

// NewPackedTable returns a table pre-sized for about hint entries.
func NewPackedTable(hint int) *PackedTable {
	t := &PackedTable{}
	t.init(tableCapFor(hint))
	return t
}

// tableCapFor returns the smallest power-of-two capacity that holds hint
// entries under the load cap.
func tableCapFor(hint int) int {
	c := minTableCap
	for c*maxLoadNum < hint*maxLoadDen {
		c *= 2
	}
	return c
}

func (t *PackedTable) init(capacity int) {
	t.keys = make([]uint64, capacity)
	t.aggs = make([]Agg, capacity)
	t.mask = uint64(capacity - 1)
}

// probeHash is the splitmix64 finalizer. See the type comment for why it must
// differ from the engine's partition hash.
func probeHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of live entries.
func (t *PackedTable) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Reset clears the table keeping its backing capacity: one memclr of the key
// array. Stale aggregate slots are harmless — a slot is only read after its
// key is written, and writing a key always writes the aggregate.
func (t *PackedTable) Reset() {
	clear(t.keys)
	t.n = 0
	t.hasZero = false
	t.zero = Agg{}
}

// ScratchSize implements engine.Scratch: the backing capacity in slots.
func (t *PackedTable) ScratchSize() int { return len(t.keys) }

// Reserve grows the backing arrays so n total entries fit without further
// rehashing; existing entries are kept.
func (t *PackedTable) Reserve(n int) {
	if c := tableCapFor(n); c > len(t.keys) {
		t.grow(c)
	}
}

// Add merges a into the entry for k, inserting it when absent.
func (t *PackedTable) Add(k uint64, a Agg) {
	if k == 0 {
		if t.hasZero {
			t.zero.SumM += a.SumM
			t.zero.SumMhat += a.SumMhat
			t.zero.Count += a.Count
		} else {
			t.hasZero = true
			t.zero = a
		}
		return
	}
	i := probeHash(k) & t.mask
	for {
		kk := t.keys[i]
		if kk == k {
			ag := &t.aggs[i]
			ag.SumM += a.SumM
			ag.SumMhat += a.SumMhat
			ag.Count += a.Count
			return
		}
		if kk == 0 {
			t.keys[i] = k
			t.aggs[i] = a
			t.n++
			if t.n*maxLoadDen > len(t.keys)*maxLoadNum {
				t.grow(len(t.keys) * 2)
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow rehashes into a capacity-slot backing. Keys are already distinct, so
// reinsertion is probe-to-first-empty with no merge checks.
func (t *PackedTable) grow(capacity int) {
	oldKeys, oldAggs := t.keys, t.aggs
	t.init(capacity)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := probeHash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.aggs[j] = oldAggs[i]
	}
}

// Get returns the aggregate for k.
func (t *PackedTable) Get(k uint64) (Agg, bool) {
	if k == 0 {
		return t.zero, t.hasZero
	}
	i := probeHash(k) & t.mask
	for {
		kk := t.keys[i]
		if kk == k {
			return t.aggs[i], true
		}
		if kk == 0 {
			return Agg{}, false
		}
		i = (i + 1) & t.mask
	}
}

// ForEach visits every live entry.
func (t *PackedTable) ForEach(f func(k uint64, a Agg)) {
	if t.hasZero {
		f(0, t.zero)
	}
	for i, k := range t.keys {
		if k != 0 {
			f(k, t.aggs[i])
		}
	}
}

// ForEachPtr visits every live entry with a mutable aggregate — the in-place
// alternative to rebuilding the table for value fix-ups. Returning false
// stops the walk.
func (t *PackedTable) ForEachPtr(f func(k uint64, a *Agg) bool) {
	if t.hasZero {
		if !f(0, &t.zero) {
			return
		}
	}
	for i, k := range t.keys {
		if k != 0 && !f(k, &t.aggs[i]) {
			return
		}
	}
}

// MergeTable folds every entry of o into t — the table-into-table reduce of
// the cube's merge round.
func (t *PackedTable) MergeTable(o *PackedTable) {
	if o.hasZero {
		t.Add(0, o.zero)
	}
	for i, k := range o.keys {
		if k != 0 {
			t.Add(k, o.aggs[i])
		}
	}
}

// Map materializes the table as an ordinary keyed map (tests only; the
// pipeline never calls it).
func (t *PackedTable) Map() map[uint64]Agg {
	out := make(map[uint64]Agg, t.Len())
	t.ForEach(func(k uint64, a Agg) { out[k] = a })
	return out
}

// Release returns the table to the backend arena so later rounds — of this
// query or the next on the same backend — reuse its backing arrays. Safe on
// bare backends (no-op; the GC takes it with the run). The sirumvet
// pairedlifecycle check enforces that borrowed tables are Released or handed
// off.
func (t *PackedTable) Release(c engine.Backend) {
	engine.ReleaseScratch(c, t)
}

// BorrowTable takes a recycled table sized for about hint entries from the
// backend arena (tracked by the query scope, swept at Finish), allocating a
// fresh one when nothing suitable is free.
func BorrowTable(c engine.Backend, hint int) *PackedTable {
	if s := engine.BorrowScratch(c, tableCapFor(hint)); s != nil {
		if t, ok := s.(*PackedTable); ok {
			t.Reserve(hint)
			return t
		}
		// A foreign Scratch implementation: put it back and allocate.
		engine.ReleaseScratch(c, s)
	}
	t := NewPackedTable(hint)
	engine.TrackScratch(c, t)
	return t
}

// PackedKeys is the key representation of the table pipeline: single-word
// keys from a rule.Packer, valid when the dimension dictionaries pack into 64
// bits.
type PackedKeys struct{ P *rule.Packer }

// NumDims returns the rule arity d.
func (pk PackedKeys) NumDims() int { return pk.P.NumDims() }

// MapAncestorsTable runs one map stage over a partition: it emits the proper
// ancestors of every rule in src — wildcarding non-empty subsets of the
// group's attributes, a single OR per attribute — accumulating directly into
// dst, and returns the number of (ancestor, aggregate) emissions. With src
// and dst recycled through the arena the warm steady state allocates nothing
// (the free-mask scratch is a stack array). Corrupt keys and enumerations
// past rule.MaxFreeAttrs fail.
func (pk PackedKeys) MapAncestorsTable(src, dst *PackedTable, group []int) (int64, error) {
	p := pk.P
	total := uint(p.TotalBits())
	// Packed layouts spend at least one bit per attribute, so 64 masks always
	// suffice; rule.MaxFreeAttrs bounds the enumeration well below that.
	var free [64]uint64
	var emitted int64
	nSlots := len(src.keys)
	for i := -1; i < nSlots; i++ {
		var key uint64
		var agg Agg
		if i < 0 {
			if !src.hasZero {
				continue
			}
			key, agg = 0, src.zero
		} else {
			key = src.keys[i]
			if key == 0 {
				continue
			}
			agg = src.aggs[i]
		}
		if total < 64 && key>>total != 0 {
			return 0, fmt.Errorf("cube: corrupt packed rule key %#x: bits set beyond the %d-bit layout", key, total)
		}
		nf := 0
		for _, pos := range group {
			if m := p.FieldMask(pos); key&m != m {
				free[nf] = m
				nf++
			}
		}
		if nf > rule.MaxFreeAttrs {
			return 0, &rule.BlowupError{Free: nf}
		}
		n := 1 << uint(nf)
		for mask := 1; mask < n; mask++ {
			anc := key
			for b := 0; b < nf; b++ {
				if mask&(1<<uint(b)) != 0 {
					anc |= free[b]
				}
			}
			dst.Add(anc, agg)
			emitted++
		}
	}
	return emitted, nil
}

// borrowTables borrows n tables, each sized for about hint entries.
func borrowTables(c engine.Backend, n, hint int) []*PackedTable {
	ts := make([]*PackedTable, n)
	for i := range ts {
		ts[i] = BorrowTable(c, hint)
	}
	return ts
}

// ReleaseTables returns every partition of a table collection to the arena.
// Callers release a collection as soon as its entries are consumed — copied
// into results or folded into the next round — so one query's iterations
// recycle the same backing arrays.
func ReleaseTables(c engine.Backend, coll *engine.PColl[*PackedTable]) {
	for _, t := range coll.Parts() {
		t.Release(c)
	}
}

// ComputeTables is Compute for packed keys over arena-recycled tables: the
// same round structure — key-partition, then per column group one
// map/shuffle/merge round — but every stage accumulates into flat tables
// instead of fresh Go maps. Two scratch table sets (generated
// ancestors, their reduction) are borrowed once and Reset between stages, and
// the merge folds table-into-table in place, so a multi-stage cube reuses the
// same backing arrays across all stages. The caller owns the returned
// partitions and releases them (ReleaseTables) once consumed.
func ComputeTables(c engine.Backend, in *engine.PColl[*PackedTable], pk PackedKeys, groups [][]int) (*engine.PColl[*PackedTable], error) {
	if err := validateGroups(pk.NumDims(), groups); err != nil {
		return nil, err
	}
	parts := c.Config().Partitions
	records := 0
	for _, t := range in.Parts() {
		records += t.Len()
	}
	hint := records/parts + 1

	// Round 0: key-partition the input so every rule lives in exactly one
	// partition (the reduce of "computing LCA(s,D)" in the thesis).
	cur := borrowTables(c, parts, hint)
	engine.ShuffleTables[*PackedTable, Agg](c, in, "cube/partition", cur, TableRecordBytes)
	c.JobBoundary()

	gen := borrowTables(c, parts, hint)
	red := borrowTables(c, parts, hint)
	release := func(ts []*PackedTable) {
		for _, t := range ts {
			t.Release(c)
		}
	}
	defer release(gen)
	defer release(red)

	for gi, group := range groups {
		group := group
		stage := fmt.Sprintf("cube/stage%d", gi+1)
		// Map: emit this group's proper ancestors, combining locally (the
		// combiner of the MR round). Failures are collected per partition and
		// surfaced after the stage instead of panicking inside a worker.
		errs := make([]error, parts)
		c.RunStage(stage+"/map", parts, func(i int) {
			gen[i].Reset()
			emitted, err := pk.MapAncestorsTable(cur[i], gen[i], group)
			if err != nil {
				errs[i] = err
				return
			}
			c.Reg().Add(metrics.CtrPairsEmitted, emitted)
		})
		for _, err := range errs {
			if err != nil {
				release(cur)
				return nil, err
			}
		}
		// Reduce: co-partition the generated ancestors with the pass-through
		// rules (same hash, same partition count) and merge in place.
		engine.ShuffleTables[*PackedTable, Agg](c, engine.NewPColl(gen), stage+"/shuffle", red, TableRecordBytes)
		c.RunStage(stage+"/merge", parts, func(b int) {
			cur[b].MergeTable(red[b])
		})
		c.JobBoundary()
	}
	return engine.NewPColl(cur), nil
}

// CountTableCandidates sums the number of distinct candidate rules across the
// result partitions.
func CountTableCandidates(c engine.Backend, candidates *engine.PColl[*PackedTable]) int64 {
	var total int64
	for _, p := range candidates.Parts() {
		total += int64(p.Len())
	}
	return total
}
