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
// whatever cores the host has. Under SimBackend, every task's real CPU
// duration is measured, and tasks are then placed onto E virtual executors ×
// C virtual cores by list scheduling in task order; a stage's simulated
// duration is the makespan of that schedule plus StageOverhead. To that clock
// price adds job startup (JobOverhead), shuffle and broadcast transfer at
// NetBandwidth, and disk traffic at DiskBandwidth. Wall-clock time is tracked
// too. All scalability figures (5.1, 5.2, 5.16, 5.17) are reported in
// simulated time; single-machine algorithmic comparisons (RCT vs naive, fast
// pruning, …) hold in both clocks because they do the same real work.
package engine

import (
	"fmt"
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
	PoolLimit         int           // prepared datasets retained in the backend's DataPool (default DefaultPoolLimit); size up for servers holding many sessions on one backend
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
	if c.PoolLimit <= 0 {
		c.PoolLimit = DefaultPoolLimit
	}
	return c
}

// SimBackend is the simulated-cluster backend. It owns the lifetime metrics
// registry every query's counts land in, the stage clock, and a spill
// directory for disk-backed blocks.
type SimBackend struct {
	conf Config
	reg  *metrics.Registry
	pool *DataPool

	stageMu    sync.Mutex
	stageClock time.Duration // makespans plus StageOverhead, per RunStage

	spill spiller
	cols  columnArena

	sem chan struct{} // limits real concurrency
}

// NewSimBackend builds a simulated cluster from conf (zero fields get
// defaults).
func NewSimBackend(conf Config) *SimBackend {
	conf = conf.withDefaults()
	return &SimBackend{
		conf: conf,
		reg:  metrics.NewRegistry(),
		pool: newDataPool(conf.PoolLimit),
		sem:  make(chan struct{}, conf.RealParallelism),
	}
}

// Name identifies the backend.
func (c *SimBackend) Name() string { return "sim" }

// Config returns the effective (defaulted) configuration.
func (c *SimBackend) Config() Config { return c.conf }

// Reg returns the lifetime metrics registry.
func (c *SimBackend) Reg() *metrics.Registry { return c.reg }

// Pool returns the prepared-dataset pool.
func (c *SimBackend) Pool() *DataPool { return c.pool }

// Close removes any spill files. The backend is unusable afterwards.
func (c *SimBackend) Close() error { return c.spill.cleanup() }

// TotalMemory returns the cluster-wide cache budget. Spark reserves ~60% of
// executor memory for storage; the same fraction applies here (Section 4.5).
func (c *SimBackend) TotalMemory() int64 {
	return int64(float64(c.conf.MemoryPerExecutor) * 0.6 * float64(c.conf.Executors))
}

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

// RunStage executes n tasks with bounded real parallelism and advances the
// stage clock (see runStage).
func (c *SimBackend) RunStage(name string, n int, task func(i int)) {
	c.runStage(c.reg, name, n, task)
}

// runStage executes n tasks with bounded real parallelism, measures each
// task's wall duration, counts the stage on reg, and advances the stage
// clock by the makespan of scheduling those durations onto the virtual
// cluster. Task panics are captured and re-raised on the caller with stage
// context after all tasks finish.
func (c *SimBackend) runStage(reg *metrics.Registry, name string, n int, task func(i int)) {
	if n == 0 {
		c.advance(c.conf.StageOverhead)
		return
	}
	durations := make([]time.Duration, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		c.sem <- struct{}{}
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
				<-c.sem
				wg.Done()
			}()
			start := time.Now()
			task(i)
			durations[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("engine: task %d of stage %q panicked: %v", i, name, p))
		}
	}
	reg.Add(metrics.CtrTasks, int64(n))
	reg.Add(metrics.CtrStages, 1)
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

// spillPath lazily creates the spill directory and returns a file path for
// the named block.
func (c *SimBackend) spillPath(name string) (string, error) { return c.spill.path(name) }

// accountsBytes: the simulator prices operators by byte volume.
func (c *SimBackend) accountsBytes() bool { return true }

func (c *SimBackend) arena() *columnArena { return &c.cols }
