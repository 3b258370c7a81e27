package engine

// Table is the minimal contract ShuffleTables redistributes over: a flat
// uint64-keyed aggregate table (the cube's PackedTable). The engine stays
// representation-agnostic — callers supply the concrete destination tables.
type Table[V any] interface {
	// Len returns the number of live entries.
	Len() int
	// Reset clears the table, keeping its backing capacity.
	Reset()
	// ForEach visits every (key, value) entry.
	ForEach(f func(k uint64, v V))
	// Add merges v into the entry for k.
	Add(k uint64, v V)
}

// ShuffleTables is the table-aware ShuffleByKey: it redistributes the entries
// of per-partition tables so every key lives in exactly one destination
// table, merging on collision via the table's own Add. dst supplies one
// pre-borrowed table per output partition; each is Reset inside its exchange
// task, filled, and returned wrapped as the output collection.
//
// Unlike the map shuffle there is no intermediate bucket materialization at
// all: reduce task p scans every input table and keeps the keys that hash to
// p — a branch per entry over flat arrays instead of a record copy, so the
// exchange allocates nothing. The partition hash is the same mix64 the map
// path uses for uint64 keys (tables and maps co-partition identically); the
// tables' own probe hash must stay independent of it, or one partition's keys
// would cluster into a few probe chains.
//
// recordBytes is the serialized size of one (key, value) slot for backends
// that price byte volume; every input entry is recorded once, as on the map
// path.
func ShuffleTables[T Table[V], V any](b Backend, in *PColl[T], name string, dst []T, recordBytes int) *PColl[T] {
	outParts := uint64(len(dst))
	var records int64
	for _, t := range in.Parts() {
		records += int64(t.Len())
	}
	srcs := in.Parts()
	b.RunStage(name+"/exchange", len(dst), func(p int) {
		dt := dst[p]
		dt.Reset()
		want := uint64(p)
		keep := func(k uint64, v V) {
			if mix64(k)%outParts == want {
				dt.Add(k, v)
			}
		}
		for _, src := range srcs {
			src.ForEach(keep)
		}
	})
	var bytes int64
	if b.accountsBytes() {
		bytes = records * int64(recordBytes)
	}
	recordShuffle(b, bytes, records)
	return NewPColl(dst)
}
