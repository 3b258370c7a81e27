package engine

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sirum/internal/metrics"
)

func testConfig() Config {
	return Config{
		Executors:        4,
		CoresPerExecutor: 2,
		Partitions:       8,
		StageOverhead:    0,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewSimBackend(Config{})
	conf := c.Config()
	if conf.Executors != 1 || conf.CoresPerExecutor != 1 || conf.Partitions != 1 {
		t.Errorf("defaults: %+v", conf)
	}
	if conf.NetBandwidth <= 0 || conf.DiskBandwidth <= 0 || conf.RealParallelism <= 0 {
		t.Errorf("bandwidth defaults: %+v", conf)
	}
}

func TestRunStageExecutesAllTasks(t *testing.T) {
	c := NewSimBackend(testConfig())
	defer c.Close()
	var n atomic.Int64
	c.RunStage("count", 100, func(i int) { n.Add(1) })
	if n.Load() != 100 {
		t.Errorf("tasks run = %d", n.Load())
	}
	if got := c.Reg().Counter(metrics.CtrTasks); got != 100 {
		t.Errorf("task counter = %d", got)
	}
	if got := c.Reg().Counter(metrics.CtrStages); got != 1 {
		t.Errorf("stage counter = %d", got)
	}
	if c.SimTime() <= 0 {
		t.Error("sim clock did not advance")
	}
}

func TestRunStagePanicPropagates(t *testing.T) {
	c := NewSimBackend(testConfig())
	defer c.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("task panic was swallowed")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom") || !strings.Contains(msg, "explode") {
			t.Errorf("panic message lacks context: %v", r)
		}
	}()
	c.RunStage("explode", 8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestRunStageEmpty(t *testing.T) {
	c := NewSimBackend(Config{StageOverhead: time.Second})
	defer c.Close()
	c.RunStage("empty", 0, func(int) { t.Fatal("task ran") })
	if c.SimTime() != time.Second {
		t.Errorf("empty stage sim time = %v", c.SimTime())
	}
}

// TestMakespanScaling verifies the heart of the simulated clock: the same
// task durations scheduled on more executors yield proportionally smaller
// makespans (up to the per-task floor).
func TestMakespanScaling(t *testing.T) {
	durations := make([]time.Duration, 64)
	for i := range durations {
		durations[i] = 10 * time.Millisecond
	}
	mk := func(execs int) time.Duration {
		c := NewSimBackend(Config{Executors: execs, CoresPerExecutor: 1})
		defer c.Close()
		return c.makespan(durations)
	}
	m2, m4, m16 := mk(2), mk(4), mk(16)
	if m2 != 320*time.Millisecond || m4 != 160*time.Millisecond || m16 != 40*time.Millisecond {
		t.Errorf("makespans: 2->%v 4->%v 16->%v", m2, m4, m16)
	}
}

func TestMakespanSlowNode(t *testing.T) {
	durations := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}
	c := NewSimBackend(Config{Executors: 2, CoresPerExecutor: 1, SlowNodeFactor: 3})
	defer c.Close()
	// One task lands on the slow executor (x3), the other on the fast one.
	if got := c.makespan(durations); got != 30*time.Millisecond {
		t.Errorf("slow-node makespan = %v, want 30ms", got)
	}
}

func TestChargeShuffleAndBroadcast(t *testing.T) {
	c := NewSimBackend(Config{Executors: 4, NetBandwidth: 1 << 20, DiskBandwidth: 1 << 20})
	defer c.Close()
	out := ShuffleByKey(c, NewPColl([]map[int]int{{1: 1, 2: 2}, {2: 20, 3: 3}}), "x", 4,
		func(a, b int) int { return a + b }, func(int, int) int { return 1 << 18 })
	if out.NumParts() != 4 {
		t.Fatalf("out parts = %d", out.NumParts())
	}
	if got := c.Reg().Counter(metrics.CtrShuffleBytes); got != 1<<20 {
		t.Errorf("shuffle bytes = %d", got)
	}
	if got := c.Reg().Counter(metrics.CtrShuffleRecords); got != 4 {
		t.Errorf("shuffle records = %d", got)
	}
	// 1 MiB over 4 executors: 3/4 leaves each node, pulled 4 ways, at 1 MiB/s.
	if got, want := c.price(), 3*time.Second/16; got != want {
		t.Errorf("shuffle price = %v, want %v", got, want)
	}
	t1 := SimTime(c)
	c.Reg().Add(metrics.CtrBroadcastBytes, 1<<20)
	if got := SimTime(c) - t1; got != time.Second {
		t.Errorf("1 MiB broadcast at 1 MiB/s advanced the clock by %v", got)
	}
}

func TestShuffleToDiskCostsMore(t *testing.T) {
	mem := NewSimBackend(Config{Executors: 4, NetBandwidth: 1 << 20, DiskBandwidth: 1 << 20})
	disk := NewSimBackend(Config{Executors: 4, NetBandwidth: 1 << 20, DiskBandwidth: 1 << 20, ShuffleToDisk: true})
	defer mem.Close()
	defer disk.Close()
	for _, b := range []*SimBackend{mem, disk} {
		b.Reg().Add(metrics.CtrShuffleBytes, 8<<20)
	}
	if disk.SimTime() <= mem.SimTime() {
		t.Errorf("disk shuffle (%v) not slower than memory shuffle (%v)", disk.SimTime(), mem.SimTime())
	}
	// The disk term prices shuffle_bytes; spill_bytes stays the cache's.
	if got := disk.Reg().Counter(metrics.CtrSpillBytes); got != 0 {
		t.Errorf("disk shuffle booked %d spill bytes", got)
	}
}

func TestJobBoundary(t *testing.T) {
	c := NewSimBackend(Config{JobOverhead: 7 * time.Second})
	defer c.Close()
	NewQueryScope(c).Reg().Add(metrics.CtrJobs, 1)
	if SimTime(c) != 7*time.Second {
		t.Errorf("job boundary sim time = %v", SimTime(c))
	}
}

// chargeRef is a per-call copy of the cost model as it stood when each
// operator advanced the simulated clock itself, one charge per call with the
// integer divisions applied per call. TestSimPricesRecordedWork holds
// SimBackend.price, which applies the same formulas once to the recorded
// totals, to it.
type chargeRef struct {
	conf Config
	t    time.Duration
}

func (r *chargeRef) transfer(bytes int64) {
	r.t += time.Duration(float64(bytes) / r.conf.NetBandwidth * float64(time.Second))
}

func (r *chargeRef) disk(bytes int64) {
	r.t += time.Duration(float64(bytes) / r.conf.DiskBandwidth * float64(time.Second))
}

func (r *chargeRef) shuffle(bytes int64) {
	e := int64(r.conf.Executors)
	remote := bytes * (e - 1) / e
	r.transfer(remote / e)
	if r.conf.ShuffleToDisk {
		r.disk(2 * bytes / e)
	}
}

// TestSimPricesRecordedWork records a table of work — each kind of count an
// operator records, through a query scope as queries do — and checks that
// the priced clock equals the per-call charges after every row, on several
// cluster shapes with and without disk-materialized shuffles.
func TestSimPricesRecordedWork(t *testing.T) {
	blocks := makeBlocks(6, 100, 3)
	perBlock := blocks[0].Bytes()
	for _, execs := range []int{1, 3, 16} {
		for _, toDisk := range []bool{false, true} {
			conf := Config{
				Executors:         execs,
				NetBandwidth:      48 << 20, // a byte of integer-division rounding
				DiskBandwidth:     16 << 20, // stays far below the 1µs tolerance
				JobOverhead:       300 * time.Millisecond,
				ShuffleToDisk:     toDisk,
				MemoryPerExecutor: int64(float64(2*perBlock)/0.6/float64(execs)) + 1,
			}
			c := NewSimBackend(conf)
			q := NewQueryScope(c)
			ref := &chargeRef{conf: c.Config()}
			var cd *CachedData
			work := []struct {
				name   string
				record func()
				charge func()
			}{
				{"shuffle", func() {
					q.Reg().Add(metrics.CtrShuffleBytes, 1_000_003)
					q.Reg().Add(metrics.CtrShuffleRecords, 17)
				}, func() { ref.shuffle(1_000_003) }},
				{"shuffle again", func() {
					q.Reg().Add(metrics.CtrShuffleBytes, 77_777)
					q.Reg().Add(metrics.CtrShuffleRecords, 5)
				}, func() { ref.shuffle(77_777) }},
				{"broadcast", func() { q.Reg().Add(metrics.CtrBroadcastBytes, 654_321) },
					func() { ref.transfer(654_321) }},
				{"naive repartition", func() { q.Reg().Add(metrics.CtrShuffleBytes, 2_500_001) },
					func() { ref.shuffle(2_500_001) }},
				{"jobs", func() { q.Reg().Add(metrics.CtrJobs, 3) },
					func() { ref.t += 3 * conf.JobOverhead }},
				{"disk read", func() { q.Reg().Add(metrics.CtrDiskReadBytes, 9_999_991) },
					func() { ref.disk(9_999_991 / int64(execs)) }},
				{"cache spill", func() {
					var err error
					if cd, err = CacheTuples(q, blocks); err != nil {
						t.Fatal(err)
					}
				}, func() {
					// A 2-block budget admitting 6 blocks in order spills 4.
					for i := 0; i < 4; i++ {
						ref.disk(perBlock)
					}
				}},
				{"cache reload", func() {
					for i := 0; i < 3; i++ {
						if _, err := cd.Get(i); err != nil {
							t.Fatal(err)
						}
					}
				}, func() {
					// Reloading blocks 0-2 evicts 4, 5 and 0 in LRU order; only
					// 4 and 5, never yet on disk, are written.
					for i := 0; i < 5; i++ {
						ref.disk(perBlock)
					}
				}},
			}
			for _, w := range work {
				w.record()
				w.charge()
				if d := SimTime(q) - ref.t; d < -time.Microsecond || d > time.Microsecond {
					t.Errorf("executors=%d toDisk=%v after %s: priced %v, charged %v", execs, toDisk, w.name, SimTime(q), ref.t)
				}
			}
			if got := c.Reg().Counter(metrics.CtrSpillReads); got != 3*perBlock {
				t.Errorf("executors=%d toDisk=%v: reload bytes = %d, want %d", execs, toDisk, got, 3*perBlock)
			}
			q.Finish()
			c.Close()
		}
	}
}

func TestMapPartsAndForEachPart(t *testing.T) {
	c := NewSimBackend(testConfig())
	defer c.Close()
	in := NewPColl([][]int{{1, 2}, {3, 4}, {5, 6}})
	sums := MapParts(c, in, "sum", func(_ int, p []int) int {
		s := 0
		for _, v := range p {
			s += v
		}
		return s
	})
	total := 0
	for _, s := range sums.Parts() {
		total += s
	}
	if total != 21 {
		t.Errorf("total = %d", total)
	}
	if sums.NumParts() != in.NumParts() {
		t.Error("MapParts changed partitioning")
	}
	if in.Part(0) == nil {
		t.Error("Part accessor broken")
	}
}

func TestShuffleByKey(t *testing.T) {
	c := NewSimBackend(testConfig())
	defer c.Close()
	// Two partitions holding overlapping keys.
	parts := []map[string]int{
		{"a": 1, "b": 2, "c": 3},
		{"a": 10, "c": 30, "d": 40},
	}
	out := ShuffleByKey(c, NewPColl(parts), "merge", 4, func(a, b int) int { return a + b },
		func(k string, v int) int { return len(k) + 8 })
	if out.NumParts() != 4 {
		t.Fatalf("out parts = %d", out.NumParts())
	}
	merged := map[string]int{}
	for _, p := range out.Parts() {
		for k, v := range p {
			if _, dup := merged[k]; dup {
				t.Errorf("key %q appears in multiple output partitions", k)
			}
			merged[k] = v
		}
	}
	want := map[string]int{"a": 11, "b": 2, "c": 33, "d": 40}
	for k, v := range want {
		if merged[k] != v {
			t.Errorf("merged[%q] = %d, want %d", k, merged[k], v)
		}
	}
	if len(merged) != len(want) {
		t.Errorf("merged = %v", merged)
	}
	if c.Reg().Counter(metrics.CtrShuffleRecords) != 6 {
		t.Errorf("shuffle records = %d, want 6", c.Reg().Counter(metrics.CtrShuffleRecords))
	}
}

func TestShuffleDefaultPartitions(t *testing.T) {
	c := NewSimBackend(testConfig())
	defer c.Close()
	out := ShuffleByKey(c, NewPColl([]map[int]int{{1: 1}}), "d", 0,
		func(a, b int) int { return a + b }, func(int, int) int { return 8 })
	if out.NumParts() != c.Config().Partitions {
		t.Errorf("default partitions = %d, want %d", out.NumParts(), c.Config().Partitions)
	}
}

func TestHashKeyTypes(t *testing.T) {
	// Different key types must hash without panicking and spread keys.
	if hashKey("abc") == hashKey("abd") {
		t.Error("string hash collision on near keys (suspicious)")
	}
	_ = hashKey(42)
	_ = hashKey(int32(7))
	_ = hashKey(int64(7))
	_ = hashKey(uint64(7))
	_ = hashKey(3.14) // fallback path
}
