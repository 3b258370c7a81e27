package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sirum/internal/server"
)

func TestPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		v := make([]float64, tc.n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		pct, value := highPercentile(v)
		if pct != tc.want {
			t.Errorf("n=%d: reports p%g, want p%g", tc.n, pct, tc.want)
		}
		if pct > 0 {
			beyond := 0
			for _, x := range v {
				if x > value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, pct, beyond)
			}
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

// TestDueTimeAccounting stalls a fake server on its first requests, one per
// connection, so that later arrivals find every connection busy. Their own
// service is instant; the stall must show in their latency all the same,
// because an op is timed from when it was due.
func TestDueTimeAccounting(t *testing.T) {
	const stall = 300 * time.Millisecond
	conns := runtime.GOMAXPROCS(0)
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= int64(conns) {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(server.MineResponse{Cached: true})
	}))
	defer ts.Close()

	pl := &servePlan{sz: smokeSizes, cl: &cluster{front: ts.URL, dir: t.TempDir()}, ids: []string{"fake"}}
	for i := 0; i < conns+4; i++ {
		pl.sched = append(pl.sched, arrival{due: int64(i) * int64(10*time.Millisecond), kind: "mine"})
	}
	samples := pl.openLoop(nil, 0)
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("op %d: %v", i, s.err)
		}
		if i < conns {
			continue
		}
		// Due while every connection was stalled: sent late, answered at once.
		if wait := s.sent.Sub(s.due); wait < stall/2 {
			t.Errorf("op %d was put on a connection %v after it was due; every connection was stalled for %v", i, wait, stall)
		}
		if service := s.done.Sub(s.sent); service > stall/2 {
			t.Errorf("op %d: its own round trip took %v, the fake answers at once", i, service)
		}
		if s.latency() < stall/2 {
			t.Errorf("op %d: latency %v does not include the wait since it was due", i, s.latency())
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	sz := smokeSizes
	for _, name := range []string{"mine", "explore", "wide"} {
		digests := make(map[int64]string)
		for _, seed := range []int64{7, 7, 8} {
			pl, err := buildLibrary(name, seed, sz)
			if err != nil {
				t.Fatal(err)
			}
			pl.close()
			if prev, ok := digests[seed]; ok && prev != pl.digest {
				t.Errorf("%s: seed %d gave digests %s and %s", name, seed, prev, pl.digest)
			}
			digests[seed] = pl.digest
		}
		if digests[7] == digests[8] {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
	schedA, batchesA, a := servingInputs(7, 2, sz)
	schedB, batchesB, b := servingInputs(7, 2, sz)
	_, _, c := servingInputs(8, 2, sz)
	if a != b || len(schedA) != len(schedB) {
		t.Errorf("serving: seed 7 gave digests %s and %s", a, b)
	}
	for i := range schedA {
		if schedA[i] != schedB[i] {
			t.Fatalf("serving: arrival %d differs between equal seeds", i)
		}
	}
	if batchesA[0][0].rows[0][0] != batchesB[0][0].rows[0][0] {
		t.Error("serving: batches differ between equal seeds")
	}
	if a == c {
		t.Error("serving: seeds 7 and 8 gave the same schedule")
	}
	// The class mix is dealt, not sampled: every seed sends the same counts.
	count := func(sched []arrival) map[string]int {
		m := make(map[string]int)
		for _, a := range sched {
			m[a.kind]++
		}
		return m
	}
	schedC, _, _ := servingInputs(8, 2, sz)
	ca, cc := count(schedA), count(schedC)
	for kind, n := range ca {
		if cc[kind] != n {
			t.Errorf("seed 7 sends %d %s ops, seed 8 sends %d", n, kind, cc[kind])
		}
	}
	// Whatever the rotation, arrivals stay in due order and a doubled pair
	// stays a pair.
	wantPairs := -1
	for seed := int64(1); seed <= 200; seed++ {
		sched := schedule(seed, 2, sz)
		pairs := 0
		for i := 1; i < len(sched); i++ {
			if sched[i].due < sched[i-1].due {
				t.Fatalf("seed %d: schedule out of order at %d", seed, i)
			}
			if sched[i].due == sched[i-1].due {
				pairs++
			}
		}
		if wantPairs < 0 {
			wantPairs = pairs
		} else if pairs != wantPairs {
			t.Fatalf("seed %d: %d doubled pairs, seed 1 has %d", seed, pairs, wantPairs)
		}
	}
}

func TestAgreeGateCanFire(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	build := func() *results {
		r := &results{Host: thisHost(), Seed: 3, Seconds: 20, Sizes: fullSizes,
			Bounds: make(map[string]metricDef), Workloads: make(map[string]*workloadResult)}
		for _, d := range man.EndToEnd {
			r.Bounds[d.Name] = d
		}
		for _, name := range workloadNames {
			wr := &workloadResult{ScheduleDigest: "same", Attempted: 10, Metrics: make(map[string]metricValue)}
			for _, d := range man.EndToEnd {
				wr.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			r.Workloads[name] = wr
		}
		return r
	}
	if problems := agree(build(), build()); len(problems) != 0 {
		t.Fatalf("identical results do not agree: %v", problems)
	}
	// A move of a third of the bound is noise and passes; a planted
	// regression of twice the bound (20% where the bound is 0.10) must fail.
	bound := build().Bounds["ops_per_s"].Bound
	near := build()
	near.Workloads["mine"].Metrics["ops_per_s"] = metricValue{Value: 100 / (1 + bound/3)}
	if problems := agree(build(), near); len(problems) != 0 {
		t.Errorf("a move of a third of the bound is reported: %v", problems)
	}
	slow := build()
	slow.Workloads["mine"].Metrics["ops_per_s"] = metricValue{Value: 100 / (1 + 2*bound)}
	if problems := agree(build(), slow); len(problems) != 1 {
		t.Errorf("planted regression of twice the bound on mine ops_per_s: want exactly one problem, got %v", problems)
	}
	// So must a results file from another host, seed or sizing.
	other := build()
	other.Host.NProc++
	if len(agree(build(), other)) == 0 {
		t.Error("a mismatched host is accepted")
	}
	other = build()
	other.Seed++
	if len(agree(build(), other)) == 0 {
		t.Error("a mismatched seed is accepted")
	}
	other = build()
	other.Sizes.MineRows++
	if len(agree(build(), other)) == 0 {
		t.Error("mismatched frozen sizes are accepted")
	}
	other = build()
	other.Workloads["serve"].Failed = 1
	if len(agree(build(), other)) == 0 {
		t.Error("a run with failed ops is accepted")
	}
}

func TestManifestNamesTheBenchmark(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(man.EndToEnd) != 12 {
		t.Errorf("%d end-to-end metrics, want 12", len(man.EndToEnd))
	}
	for metric := range classOf {
		found := false
		for _, d := range man.EndToEnd {
			found = found || d.Name == metric
		}
		if !found {
			t.Errorf("%s is computed but not declared", metric)
		}
	}
}

// TestSmokeAllWorkloads pushes every workload through both kinds of run at
// the smoke scale: every declared metric comes out, every oracle check
// passes, and serve and route — given the same sessions — agree on them.
func TestSmokeAllWorkloads(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	// Runs write spans and snapshot directories under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	baselines := make(map[string]string)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			wr, err := runWorkload(man, name, 5, time.Second, smokeSizes, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", name, traced, wr.Failed, wr.Attempted, wr.Failures)
			}
			defs := man.EndToEnd
			if traced {
				defs = man.PerLayer
			}
			if len(wr.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", name, traced, len(wr.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := wr.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", name, traced, d.Name)
				} else if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive on every workload", name, d.Name, v.Value)
				}
			}
			if !traced && isServing(name) {
				baselines[name] = wr.BaselineDigest
			}
		}
		if _, err := os.Stat(".bench_out/spans-" + name + ".jsonl"); err != nil {
			t.Errorf("%s: no spans written: %v", name, err)
		}
	}
	if baselines["serve"] == "" || baselines["serve"] != baselines["route"] {
		t.Errorf("serve and route answer their baseline queries differently: %q vs %q", baselines["serve"], baselines["route"])
	}
	if left, _ := os.ReadDir(tmpRoot); len(left) != 0 {
		t.Errorf("%d snapshot directories left behind in %s", len(left), tmpRoot)
	}
}
