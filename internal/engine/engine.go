// Package engine is the execution substrate SIRUM runs on: partitioned
// collections with map/shuffle operators and cached data with spill-to-disk,
// over two backends. The package splits execution into three roles:
//
//   - A Backend schedules. RunStage runs a stage's tasks and counts them;
//     nothing else on the interface concerns cost.
//   - Operators record. Every operator, in this package and in cube,
//     candgen and miner, adds what it did to the backend's registry (Reg):
//     shuffled records and bytes, broadcast bytes, job boundaries, bytes read
//     from storage, cache spills and reloads (see metrics.Ctr*).
//   - SimBackend prices. Its simulated cluster clock is the stage makespans
//     it measured plus SimBackend.price over those recorded counts; it is the
//     only code that knows the cost model. NativeBackend records the same
//     counts and keeps no clock.
//
// # Simulated cluster time
//
// The thesis' evaluation ran on a 16-node cluster; this repository runs on
// whatever cores the host has. Under SimBackend, every task runs on the
// native work-stealing pool and its real duration is measured; the durations
// are then placed onto E virtual executors × C virtual cores by list
// scheduling in task order, and a stage's simulated duration is the makespan
// of that schedule plus StageOverhead. To that clock price adds job startup
// (JobOverhead), shuffle and broadcast transfer at NetBandwidth, and disk
// traffic at DiskBandwidth. Wall-clock time is tracked too. All scalability figures (5.1, 5.2, 5.16, 5.17) are reported in
// simulated time; single-machine algorithmic comparisons (RCT vs naive, fast
// pruning, …) hold in both clocks because they do the same real work.
package engine

import (
	"runtime"
	"sync"
	"time"

	"sirum/internal/metrics"
)

// Config describes the execution substrate. For SimBackend every field
// shapes the cost model; NativeBackend uses only Partitions,
// MemoryPerExecutor (for the cache budget), Executors (to scale the budget)
// and RealParallelism.
type Config struct {
	Executors         int           // number of virtual worker nodes
	CoresPerExecutor  int           // task slots per node
	Partitions        int           // default partition count for new data
	MemoryPerExecutor int64         // bytes available per executor for cached blocks
	NetBandwidth      float64       // bytes/sec for shuffle and broadcast traffic
	DiskBandwidth     float64       // bytes/sec for spills and disk-materialized shuffles
	StageOverhead     time.Duration // scheduling cost charged per stage
	JobOverhead       time.Duration // startup cost priced per recorded job boundary
	ShuffleToDisk     bool          // materialize shuffle data on disk (MapReduce-style)
	RealParallelism   int           // actual concurrent goroutines (defaults to NumCPU)
	SlowNodeFactor    float64       // executor 0 runs this much slower; <=1 disables
}

func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = 1
	}
	if c.CoresPerExecutor <= 0 {
		c.CoresPerExecutor = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Executors * c.CoresPerExecutor
	}
	if c.NetBandwidth <= 0 {
		c.NetBandwidth = 1 << 30
	}
	if c.DiskBandwidth <= 0 {
		c.DiskBandwidth = 200 << 20
	}
	if c.RealParallelism <= 0 {
		c.RealParallelism = runtime.NumCPU()
	}
	if c.MemoryPerExecutor <= 0 {
		c.MemoryPerExecutor = 1 << 40 // effectively unlimited
	}
	return c
}

// SimBackend is the simulated-cluster backend: a NativeBackend that runs
// every stage on the same work-stealing pool, plus a clock. It times each
// task and advances the stage clock by the stage's simulated makespan; its
// registry, cache budget, spill directory and arena are the native ones.
type SimBackend struct {
	*NativeBackend

	stageMu    sync.Mutex
	stageClock time.Duration // makespans plus StageOverhead, per RunStage
}

// NewSimBackend builds a simulated cluster from conf (zero fields get
// defaults; Partitions defaults to Executors × CoresPerExecutor).
func NewSimBackend(conf Config) *SimBackend {
	return &SimBackend{NativeBackend: NewNativeBackend(conf.withDefaults())}
}

// Name identifies the backend.
func (c *SimBackend) Name() string { return "sim" }

// SimTime returns the simulated cluster clock: the stage clock plus the price
// of all work recorded on the backend's registry so far.
func (c *SimBackend) SimTime() time.Duration {
	c.stageMu.Lock()
	t := c.stageClock
	c.stageMu.Unlock()
	return t + c.price()
}

// price is the cost model: the simulated time of the work recorded on the
// backend's registry, beyond the stages themselves.
//   - Each job boundary costs JobOverhead (dominant for the Hive-like
//     profile, small for Spark-like).
//   - A shuffle moves the fraction of its bytes leaving each node, pulled by
//     all executors in parallel; a MapReduce-style configuration
//     (ShuffleToDisk) also writes and reads every byte on disk. A Naive-join
//     repartition (Section 3.2) is recorded as the shuffle it is.
//   - A broadcast pipelines across nodes torrent-style, so it costs one
//     transfer of the payload, not one per executor (Section 3.2).
//   - Loading data from the distributed file system is spread across the
//     executors reading their partitions in parallel.
//   - Cache spills and reloads each cost one disk pass (Section 4.5).
func (c *SimBackend) price() time.Duration {
	e := int64(c.conf.Executors)
	ctr := c.reg.Counter
	shuffle := ctr(metrics.CtrShuffleBytes)
	t := time.Duration(ctr(metrics.CtrJobs)) * c.conf.JobOverhead
	t += c.transferTime(shuffle * (e - 1) / e / e)
	if c.conf.ShuffleToDisk {
		t += c.diskTime(2 * shuffle / e)
	}
	t += c.transferTime(ctr(metrics.CtrBroadcastBytes))
	t += c.diskTime(ctr(metrics.CtrDiskReadBytes) / e)
	t += c.diskTime(ctr(metrics.CtrSpillBytes)) + c.diskTime(ctr(metrics.CtrSpillReads))
	return t
}

// transferTime converts a byte volume to simulated network time.
func (c *SimBackend) transferTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / c.conf.NetBandwidth * float64(time.Second))
}

// diskTime converts a byte volume to simulated disk time.
func (c *SimBackend) diskTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / c.conf.DiskBandwidth * float64(time.Second))
}

// RunStage executes n tasks on the worker pool and advances the stage clock
// (see runStage).
func (c *SimBackend) RunStage(name string, n int, task func(i int)) {
	c.runStage(c.reg, name, n, task)
}

// runStage runs the stage on the native pool, timing each task, and
// advances the stage clock by the makespan of scheduling those durations
// onto the virtual cluster plus StageOverhead; an empty stage costs the
// overhead alone.
func (c *SimBackend) runStage(reg *metrics.Registry, name string, n int, task func(i int)) {
	durations := make([]time.Duration, n)
	c.NativeBackend.runStage(reg, name, n, func(i int) {
		start := time.Now()
		task(i)
		durations[i] = time.Since(start)
	})
	c.advance(c.makespan(durations) + c.conf.StageOverhead)
}

func (c *SimBackend) advance(d time.Duration) {
	c.stageMu.Lock()
	c.stageClock += d
	c.stageMu.Unlock()
}

// makespan list-schedules the task durations onto Executors×Cores virtual
// slots in task order, always choosing the earliest-available slot — the
// same greedy placement a dynamic scheduler converges to. SlowNodeFactor
// stretches tasks landing on executor 0, injecting the stragglers the weak-
// scaling experiment discusses (Section 5.7.2).
func (c *SimBackend) makespan(durations []time.Duration) time.Duration {
	slots := make([]time.Duration, c.conf.Executors*c.conf.CoresPerExecutor)
	for _, d := range durations {
		best := 0
		for s := 1; s < len(slots); s++ {
			if slots[s] < slots[best] {
				best = s
			}
		}
		if c.conf.SlowNodeFactor > 1 && best < c.conf.CoresPerExecutor {
			d = time.Duration(float64(d) * c.conf.SlowNodeFactor)
		}
		slots[best] += d
	}
	var mk time.Duration
	for _, s := range slots {
		if s > mk {
			mk = s
		}
	}
	return mk
}

// accountsBytes: the simulator prices operators by byte volume.
func (c *SimBackend) accountsBytes() bool { return true }
