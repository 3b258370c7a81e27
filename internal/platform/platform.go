// Package platform provides the execution profiles of Section 2.6/5.2: the
// same SIRUM dataflow executed under cost models matching Apache Spark
// (in-memory shuffle, fast task startup, full parallelism), Apache Hive on
// MapReduce (disk-materialized shuffles, multi-second job startup) and
// PostgreSQL (a single session confined to one process with no intra-query
// parallelism). The profiles differ only in engine.Config knobs, which is
// exactly how the thesis explains the performance gaps it measures.
package platform

import (
	"fmt"
	"time"

	"sirum/internal/engine"
)

// Kind names a data processing platform profile.
type Kind int

const (
	// Spark: in-memory RDDs, broadcast variables, sub-second stage startup.
	Spark Kind = iota
	// Hive: MapReduce execution; every shuffle is written to and re-read
	// from disk, and each job pays multi-second YARN container startup
	// (the bottlenecks Section 5.2 identifies).
	Hive
	// Postgres: one database session, one process, one core; disk-oriented
	// page access (Section 2.6.1).
	Postgres
)

// String names the profile.
func (k Kind) String() string {
	switch k {
	case Spark:
		return "Spark"
	case Hive:
		return "Hive"
	case Postgres:
		return "PostgreSQL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the supported platforms.
func Kinds() []Kind { return []Kind{Spark, Hive, Postgres} }

// Config returns the engine configuration for the profile with the given
// cluster size. Executors/cores are ignored for Postgres (always 1×1).
func Config(k Kind, executors, coresPerExecutor int, memPerExecutor int64) engine.Config {
	if executors <= 0 {
		executors = 16
	}
	if coresPerExecutor <= 0 {
		coresPerExecutor = 24
	}
	if memPerExecutor <= 0 {
		memPerExecutor = 45 << 30
	}
	switch k {
	case Hive:
		return engine.Config{
			Executors:         executors,
			CoresPerExecutor:  coresPerExecutor,
			Partitions:        executors * coresPerExecutor,
			MemoryPerExecutor: memPerExecutor,
			NetBandwidth:      1 << 30,
			DiskBandwidth:     200 << 20,
			StageOverhead:     1500 * time.Millisecond, // container scheduling
			JobOverhead:       8 * time.Second,         // MR job startup + cleanup
			ShuffleToDisk:     true,
		}
	case Postgres:
		return engine.Config{
			Executors:         1,
			CoresPerExecutor:  1,
			Partitions:        1,
			MemoryPerExecutor: memPerExecutor,
			NetBandwidth:      1 << 30,
			DiskBandwidth:     200 << 20,
			StageOverhead:     time.Millisecond, // local executor, no scheduling
			JobOverhead:       5 * time.Millisecond,
		}
	default: // Spark
		return engine.Config{
			Executors:         executors,
			CoresPerExecutor:  coresPerExecutor,
			Partitions:        executors * coresPerExecutor,
			MemoryPerExecutor: memPerExecutor,
			NetBandwidth:      1 << 30,
			DiskBandwidth:     200 << 20,
			StageOverhead:     100 * time.Millisecond,
			JobOverhead:       300 * time.Millisecond,
		}
	}
}

// ImplSpeedup is the calibration constant relating this repository's
// per-record compute cost to the thesis' Spark/JVM implementation, estimated
// at roughly 50x (dictionary-coded columnar Go vs serialized JVM rows).
// Platform comparisons measure the *ratios* of compute to coordination and
// I/O costs; to keep those ratios paper-like when compute is 50x cheaper,
// fixed overheads and bandwidths are adjusted by this factor.
const ImplSpeedup = 50

// Scale adapts the profile's cost model to an experiment that shrinks the
// paper's dataset by factor: fixed coordination costs (stage and job
// startup) divide by factor·ImplSpeedup (compute per stage shrank by factor
// from the data and by ImplSpeedup from the implementation), and bandwidths
// divide by ImplSpeedup (bytes shrank with the data, so only the
// implementation speedup must be compensated). See DESIGN.md §1.
func Scale(conf engine.Config, factor float64) engine.Config {
	if factor < 1 {
		factor = 1
	}
	conf.StageOverhead = time.Duration(float64(conf.StageOverhead) / (factor * ImplSpeedup))
	conf.JobOverhead = time.Duration(float64(conf.JobOverhead) / (factor * ImplSpeedup))
	conf.NetBandwidth /= ImplSpeedup
	conf.DiskBandwidth /= ImplSpeedup
	return conf
}
