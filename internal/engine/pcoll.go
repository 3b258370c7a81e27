package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"
)

// PColl is a partitioned collection: one element of type P per partition.
// Partition payloads are typically columnar blocks or pre-aggregated maps;
// operators run one task per partition on the backend's scheduler.
type PColl[P any] struct {
	parts []P
}

// NewPColl wraps pre-built partitions.
func NewPColl[P any](parts []P) *PColl[P] { return &PColl[P]{parts: parts} }

// NumParts returns the partition count.
func (p *PColl[P]) NumParts() int { return len(p.parts) }

// Parts exposes the partition payloads (driver-side; no cost is charged).
func (p *PColl[P]) Parts() []P { return p.parts }

// Part returns partition i.
func (p *PColl[P]) Part(i int) P { return p.parts[i] }

// SplitSlice partitions a slice into n contiguous chunks of near-equal size
// (fewer when len(data) < n); the standard way row sets enter the engine.
func SplitSlice[T any](data []T, n int) [][]T {
	if n <= 0 {
		n = 1
	}
	if n > len(data) && len(data) > 0 {
		n = len(data)
	}
	if len(data) == 0 {
		return [][]T{nil}
	}
	out := make([][]T, 0, n)
	per := int(math.Ceil(float64(len(data)) / float64(n)))
	for start := 0; start < len(data); start += per {
		end := min(start+per, len(data))
		out = append(out, data[start:end])
	}
	return out
}

// MapParts applies f to every partition in parallel, producing a new
// collection with the same partitioning.
func MapParts[P, Q any](b Backend, in *PColl[P], name string, f func(part int, p P) Q) *PColl[Q] {
	out := make([]Q, in.NumParts())
	b.RunStage(name, in.NumParts(), func(i int) {
		out[i] = f(i, in.parts[i])
	})
	return NewPColl(out)
}

// ForEachPart applies f to every partition in parallel for its side effects.
func ForEachPart[P any](b Backend, in *PColl[P], name string, f func(part int, p P)) {
	b.RunStage(name, in.NumParts(), func(i int) {
		f(i, in.parts[i])
	})
}

// KeyBytes estimates serialized record volume for shuffle accounting; the
// caller supplies per-record byte sizes since Go values have no serialized
// form until encoded. Backends that do not price byte volume (the native
// path) never invoke it.
type KeyBytes[K comparable, V any] func(k K, v V) int

// ShuffleByKey redistributes per-partition hash maps by key so that every
// key lives in exactly one output partition, merging values with merge. This
// is the reduceByKey of the data-cube algorithm: the inputs act as combiner
// output, the exchange is charged to the backend, and the merge runs as a
// reduce stage. On the native backend the exchange partitions records into
// preallocated per-bucket slices instead of building a map per (input
// partition, output partition) pair.
func ShuffleByKey[K comparable, V any](b Backend, in *PColl[map[K]V], name string, outParts int, merge func(V, V) V, size KeyBytes[K, V]) *PColl[map[K]V] {
	if outParts <= 0 {
		outParts = b.Config().Partitions
	}
	if !b.accountsBytes() {
		return shuffleByKeyNative(b, in, name, outParts, merge)
	}
	// Map side: split each input partition into outParts buckets by key
	// hash. Runs as a stage so its cost lands on the simulated clock.
	buckets := make([][]map[K]V, in.NumParts())
	var shuffleBytes, shuffleRecords int64
	byteCounts := make([]int64, in.NumParts())
	recCounts := make([]int64, in.NumParts())
	b.RunStage(name+"/map", in.NumParts(), func(i int) {
		local := make([]map[K]V, outParts)
		for bkt := range local {
			local[bkt] = make(map[K]V)
		}
		for k, v := range in.parts[i] {
			bkt := int(hashKey(k) % uint64(outParts))
			if old, ok := local[bkt][k]; ok {
				local[bkt][k] = merge(old, v)
			} else {
				local[bkt][k] = v
			}
			byteCounts[i] += int64(size(k, v))
			recCounts[i]++
		}
		buckets[i] = local
	})
	for i := range byteCounts {
		shuffleBytes += byteCounts[i]
		shuffleRecords += recCounts[i]
	}
	b.ChargeShuffle(shuffleBytes, shuffleRecords)
	// Reduce side: merge bucket p of every input partition.
	out := make([]map[K]V, outParts)
	b.RunStage(name+"/reduce", outParts, func(p int) {
		merged := make(map[K]V)
		for i := range buckets {
			for k, v := range buckets[i][p] {
				if old, ok := merged[k]; ok {
					merged[k] = merge(old, v)
				} else {
					merged[k] = v
				}
			}
		}
		out[p] = merged
	})
	return NewPColl(out)
}

// kvPair is one shuffled record on the native path.
type kvPair[K comparable, V any] struct {
	k K
	v V
}

// shuffleByKeyNative is the fast exchange: the map side appends records to
// preallocated per-bucket slices (keys within one input partition are
// already unique, so no map insert or merge is needed there), and the reduce
// side merges each bucket column into one map presized to its record count.
func shuffleByKeyNative[K comparable, V any](b Backend, in *PColl[map[K]V], name string, outParts int, merge func(V, V) V) *PColl[map[K]V] {
	buckets := make([][][]kvPair[K, V], in.NumParts())
	var records atomic.Int64
	b.RunStage(name+"/map", in.NumParts(), func(i int) {
		part := in.parts[i]
		local := make([][]kvPair[K, V], outParts)
		per := len(part)/outParts + 1
		for bkt := range local {
			local[bkt] = make([]kvPair[K, V], 0, per)
		}
		for k, v := range part {
			bkt := int(hashKey(k) % uint64(outParts))
			local[bkt] = append(local[bkt], kvPair[K, V]{k, v})
		}
		records.Add(int64(len(part)))
		buckets[i] = local
	})
	b.ChargeShuffle(0, records.Load())
	out := make([]map[K]V, outParts)
	b.RunStage(name+"/reduce", outParts, func(p int) {
		total := 0
		for i := range buckets {
			total += len(buckets[i][p])
		}
		merged := make(map[K]V, total)
		for i := range buckets {
			for _, e := range buckets[i][p] {
				if old, ok := merged[e.k]; ok {
					merged[e.k] = merge(old, e.v)
				} else {
					merged[e.k] = e.v
				}
			}
		}
		out[p] = merged
	})
	return NewPColl(out)
}

// CollectMap gathers a keyed collection to the driver, merging duplicates
// (none exist after ShuffleByKey; MapParts output may have them). The gather
// runs as a named single-task stage and its volume is charged as a transfer
// to the driver.
func CollectMap[K comparable, V any](b Backend, in *PColl[map[K]V], name string, merge func(V, V) V, size KeyBytes[K, V]) map[K]V {
	total := make(map[K]V)
	var bytes int64
	account := b.accountsBytes()
	b.RunStage(name, 1, func(int) {
		for _, part := range in.parts {
			for k, v := range part {
				if old, ok := total[k]; ok {
					total[k] = merge(old, v)
				} else {
					total[k] = v
				}
				if account {
					bytes += int64(size(k, v))
				}
			}
		}
	})
	b.ChargeGather(bytes)
	return total
}

// FNV-1a constants, inlined so string hashing needs no hash.Hash64 object or
// []byte(v) copy per shuffled record.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey hashes arbitrary comparable keys. String keys (the rule keys) use
// an inlined allocation-free FNV-1a; other comparables go through a
// formatted fallback that is slower but rarely used.
func hashKey[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case string:
		h := uint64(fnvOffset64)
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= fnvPrime64
		}
		return h
	case int:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(uint32(v)))
	case int64:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	default:
		h := fnv.New64a()
		h.Write([]byte(anyString(v)))
		return h.Sum64()
	}
}

func anyString(v any) string {
	type stringer interface{ String() string }
	if s, ok := v.(stringer); ok {
		return s.String()
	}
	return fmt.Sprint(v)
}

// SimCost converts an abstract operation count at a given per-op rate into
// simulated time; used by platform profiles to model disk-oriented access
// (PostgreSQL-like scans).
func SimCost(ops int64, perOp time.Duration) time.Duration {
	return time.Duration(ops) * perOp
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// SplitRange returns the i-th of parts near-even contiguous sub-ranges of
// [0, n): the task ranges of a stage that walks a flat array instead of a
// partitioned collection.
func SplitRange(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}
