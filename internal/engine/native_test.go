package engine

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sirum/internal/metrics"
)

func testNative() *NativeBackend {
	return NewNativeBackend(Config{Executors: 4, CoresPerExecutor: 2, Partitions: 8})
}

func TestNativeRunStageExecutesAllTasksOnce(t *testing.T) {
	b := NewNativeBackend(Config{RealParallelism: 8})
	defer b.Close()
	const n = 10000
	counts := make([]atomic.Int32, n)
	b.RunStage("count", n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
	if got := b.Reg().Counter(metrics.CtrTasks); got != n {
		t.Errorf("task counter = %d", got)
	}
	if got := b.Reg().Counter(metrics.CtrStages); got != 1 {
		t.Errorf("stage counter = %d", got)
	}
}

// TestNativeRunStageSkewedTasks gives the first worker's range all the slow
// tasks; work stealing must still complete every task exactly once well
// before a static schedule would.
func TestNativeRunStageSkewedTasks(t *testing.T) {
	b := NewNativeBackend(Config{RealParallelism: 4})
	defer b.Close()
	const n = 64
	counts := make([]atomic.Int32, n)
	b.RunStage("skew", n, func(i int) {
		if i < n/4 {
			time.Sleep(2 * time.Millisecond) // the first static range is slow
		}
		counts[i].Add(1)
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

func TestNativeRunStageSingleWorker(t *testing.T) {
	b := NewNativeBackend(Config{RealParallelism: 1})
	defer b.Close()
	var order []int
	b.RunStage("serial", 5, func(i int) { order = append(order, i) })
	if len(order) != 5 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Errorf("serial order[%d] = %d", i, v)
		}
	}
}

func TestNativeRunStagePanicPropagates(t *testing.T) {
	b := testNative()
	defer b.Close()
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
	b.RunStage("explode", 64, func(i int) {
		if i == 33 {
			panic("boom")
		}
	})
}

// TestNativeNoSimClock: operators record every count on the native backend
// too, but it keeps no clock. Byte volumes the operators only size for
// pricing (the shuffle map side) stay unrecorded.
func TestNativeNoSimClock(t *testing.T) {
	b := testNative()
	defer b.Close()
	q := NewQueryScope(b)
	defer q.Finish()
	q.RunStage("s", 8, func(int) { time.Sleep(time.Millisecond) })
	ShuffleByKey(q, NewPColl([]map[int]int{{1: 1}, {2: 2}, {1: 3}}), "x", 2,
		func(a, b int) int { return a + b }, func(int, int) int { return 1 << 20 })
	q.Reg().Add(metrics.CtrBroadcastBytes, 1<<20)
	q.Reg().Add(metrics.CtrShuffleBytes, 1<<20) // a Naive-join repartition
	q.Reg().Add(metrics.CtrDiskReadBytes, 1<<30)
	q.Reg().Add(metrics.CtrJobs, 1)
	if got := SimTime(q); got != 0 {
		t.Errorf("native sim time = %v, want 0", got)
	}
	want := map[string]int64{
		metrics.CtrStages:         3,
		metrics.CtrShuffleRecords: 3,
		metrics.CtrShuffleBytes:   1 << 20,
		metrics.CtrBroadcastBytes: 1 << 20,
		metrics.CtrDiskReadBytes:  1 << 30,
		metrics.CtrJobs:           1,
	}
	for name, v := range want {
		if got := b.Reg().Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if b.Name() != "native" {
		t.Errorf("name = %q", b.Name())
	}
}

// TestNativeCacheSpills runs the cache under a budget smaller than the data
// on the native backend: spilling must work (real gob round trips) without a
// simulated clock.
func TestNativeCacheSpills(t *testing.T) {
	// 4 blocks of 1000 rows; budget below total so some spill.
	dims := [][]int32{make([]int32, 4000)}
	m := make([]float64, 4000)
	mhat := make([]float64, 4000)
	for i := range m {
		m[i] = float64(i)
		mhat[i] = 1
	}
	blocks := BlocksFromColumns(dims, m, mhat, 4)
	var perBlock int64 = blocks[0].Bytes()
	b := NewNativeBackend(Config{Executors: 1, MemoryPerExecutor: int64(float64(2*perBlock) / 0.6)})
	defer b.Close()
	cd, err := CacheTuples(b, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	if err := cd.Scan("scan", false, func(_ int, blk *TupleBlock) {
		var s float64
		for _, v := range blk.M {
			s += v
		}
		sum.Add(int64(s))
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(4000 * 3999 / 2); sum.Load() != want {
		t.Errorf("scan sum = %d, want %d", sum.Load(), want)
	}
	if b.Reg().Counter(metrics.CtrSpillBytes) == 0 {
		t.Error("no spill traffic under a tight budget")
	}
}

// TestShuffleByKeyBackendsAgree checks the exchange produces identical merged
// contents with key-disjoint output partitions whether or not the backend
// sizes record bytes, and that only the simulator records the bytes.
func TestShuffleByKeyBackendsAgree(t *testing.T) {
	parts := make([]map[string]int, 7)
	for i := range parts {
		parts[i] = make(map[string]int)
		for j := 0; j < 100; j++ {
			parts[i][string(rune('a'+j%26))+string(rune('a'+(i+j)%26))] += i*100 + j
		}
	}
	copyParts := func() []map[string]int {
		out := make([]map[string]int, len(parts))
		for i, p := range parts {
			out[i] = make(map[string]int, len(p))
			for k, v := range p {
				out[i][k] = v
			}
		}
		return out
	}
	merge := func(a, b int) int { return a + b }
	size := func(k string, _ int) int { return len(k) + 8 }

	sim := NewSimBackend(Config{Executors: 2, CoresPerExecutor: 2})
	defer sim.Close()
	nat := testNative()
	defer nat.Close()
	outSim := ShuffleByKey(sim, NewPColl(copyParts()), "x", 5, merge, size)
	outNat := ShuffleByKey(nat, NewPColl(copyParts()), "x", 5, merge, size)

	flatten := func(pc *PColl[map[string]int]) map[string]int {
		total := map[string]int{}
		for _, p := range pc.Parts() {
			for k, v := range p {
				if _, dup := total[k]; dup {
					t.Errorf("key %q in multiple output partitions", k)
				}
				total[k] = v
			}
		}
		return total
	}
	fs, fn := flatten(outSim), flatten(outNat)
	if len(fs) != len(fn) {
		t.Fatalf("key counts differ: sim %d native %d", len(fs), len(fn))
	}
	for k, v := range fs {
		if fn[k] != v {
			t.Errorf("key %q: sim %d native %d", k, v, fn[k])
		}
	}
	if sim.Reg().Counter(metrics.CtrShuffleBytes) == 0 || nat.Reg().Counter(metrics.CtrShuffleBytes) != 0 {
		t.Errorf("shuffle bytes: sim %d native %d", sim.Reg().Counter(metrics.CtrShuffleBytes), nat.Reg().Counter(metrics.CtrShuffleBytes))
	}
	if sim.Reg().Counter(metrics.CtrShuffleRecords) != nat.Reg().Counter(metrics.CtrShuffleRecords) {
		t.Errorf("shuffle records: sim %d native %d", sim.Reg().Counter(metrics.CtrShuffleRecords), nat.Reg().Counter(metrics.CtrShuffleRecords))
	}
	// Same partition assignment on both backends (same hash).
	for p := 0; p < outSim.NumParts(); p++ {
		for k := range outSim.Part(p) {
			if _, ok := outNat.Part(p)[k]; !ok {
				t.Errorf("key %q in sim partition %d but not native", k, p)
			}
		}
	}
}
