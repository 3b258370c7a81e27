package router

// The in-process cluster harness: real sirumd app servers on loopback
// listeners, a real router in front, everything driven over HTTP exactly
// as production traffic would arrive. Shards can be killed and restarted
// *on the same address* (their snapshot directory surviving), which is
// what makes the failover test honest: the router sees connection
// refusals, not polite shutdowns.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sirum/internal/server"
	"sirum/internal/spec"
)

// testShard is one shard daemon on a stable loopback address.
type testShard struct {
	conf server.Config
	srv  *server.Server
	hs   *http.Server
	addr string
	base string
	c    *server.Client
	wrap func(http.Handler) http.Handler // nil: the daemon's handler as is
}

// startShardOn serves a fresh server.New(conf) on addr ("127.0.0.1:0"
// for the first boot, the recorded address for a restart), restoring from
// conf.SnapshotDir when set. Rebinding a just-freed port can race the
// kernel, so it retries briefly.
func startShardOn(t *testing.T, addr string, conf server.Config) *testShard {
	t.Helper()
	return startWrappedShard(t, addr, conf, nil)
}

// startWrappedShard is startShardOn with the daemon's handler passed
// through wrap (when non-nil) — the hook fault tests use to slow a shard or
// cut its responses short.
func startWrappedShard(t *testing.T, addr string, conf server.Config, wrap func(http.Handler) http.Handler) *testShard {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listening on %s: %v", addr, err)
	}
	srv := server.New(conf)
	if conf.SnapshotDir != "" {
		if _, err := srv.Restore(); err != nil {
			t.Fatalf("restoring shard snapshot: %v", err)
		}
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	return &testShard{
		conf: conf, srv: srv, hs: hs,
		addr: ln.Addr().String(), base: base,
		c:    &server.Client{BaseURL: base, HTTP: &http.Client{Timeout: time.Minute}},
		wrap: wrap,
	}
}

// kill stops the shard hard: the listener closes, in-flight connections
// drop, and the port frees up for a later restart.
func (s *testShard) kill() {
	s.hs.Close()
	s.srv.Close()
}

// restart brings the shard back on its original address with its original
// config — with a snapshot directory, its sessions resume at their prior
// epochs.
func (s *testShard) restart(t *testing.T) *testShard {
	t.Helper()
	return startWrappedShard(t, s.addr, s.conf, s.wrap)
}

// cluster is N shards plus a router serving them over httptest.
type cluster struct {
	shards []*testShard
	rt     *Router
	ts     *httptest.Server
	c      *server.Client
}

// newCluster stands the cluster up. The router's health loop stays off:
// tests drive CheckHealth explicitly so state transitions are
// deterministic under -race.
func newCluster(t *testing.T, n int, snapshots bool) *cluster {
	t.Helper()
	return newWrappedCluster(t, n, snapshots, nil)
}

// newWrappedCluster is newCluster with shard i's handler passed through
// wrap(i) when wrap is non-nil.
func newWrappedCluster(t *testing.T, n int, snapshots bool, wrap func(i int) func(http.Handler) http.Handler) *cluster {
	t.Helper()
	cl := &cluster{}
	bases := make([]string, 0, n)
	for i := 0; i < n; i++ {
		conf := server.Config{ShardID: fmt.Sprintf("ts%d", i)}
		if snapshots {
			conf.SnapshotDir = t.TempDir()
		}
		var w func(http.Handler) http.Handler
		if wrap != nil {
			w = wrap(i)
		}
		sh := startWrappedShard(t, "127.0.0.1:0", conf, w)
		cl.shards = append(cl.shards, sh)
		bases = append(bases, sh.base)
	}
	rt, err := New(Config{Shards: bases, HealthInterval: -1})
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	cl.rt = rt
	cl.ts = httptest.NewServer(rt.Handler())
	cl.c = &server.Client{BaseURL: cl.ts.URL, HTTP: &http.Client{Timeout: time.Minute}}
	t.Cleanup(func() {
		cl.ts.Close()
		cl.rt.Close()
		for _, sh := range cl.shards {
			sh.kill()
		}
	})
	return cl
}

// holder scans the shards directly for the session — the ground truth the
// router's placement claims are checked against.
func (cl *cluster) holder(t *testing.T, id string) *testShard {
	t.Helper()
	var found *testShard
	for _, sh := range cl.shards {
		if _, err := sh.c.GetSession(id); err == nil {
			if found != nil {
				t.Fatalf("session %q exists on both %s and %s", id, found.base, sh.base)
			}
			found = sh
		}
	}
	if found == nil {
		t.Fatalf("session %q exists on no shard", id)
	}
	return found
}

func mustSpec(t *testing.T, req server.CreateRequest) spec.DatasetSpec {
	t.Helper()
	ds, err := req.DatasetSpec()
	if err != nil {
		t.Fatalf("computing dataset spec: %v", err)
	}
	return ds
}

func assertSameRules(t *testing.T, ctx string, got, want []server.RuleJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rules, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Display != want[i].Display || got[i].Count != want[i].Count {
			t.Fatalf("%s: rule %d is %s (%d), want %s (%d)",
				ctx, i, got[i].Display, got[i].Count, want[i].Display, want[i].Count)
		}
	}
}

// appendRow fabricates one schema-valid row for a session from its dims.
func appendRow(t *testing.T, c *server.Client, id string, measure float64) server.RowJSON {
	t.Helper()
	info, err := c.GetSession(id)
	if err != nil {
		t.Fatalf("getting session %q: %v", id, err)
	}
	dims := make([]string, len(info.Dims))
	for i := range dims {
		dims[i] = "appended"
	}
	return server.RowJSON{Dims: dims, Measure: measure}
}

const testCSV = "Day,City,Delay\nMon,NY,10\nMon,LA,12\nTue,NY,14\nTue,LA,9\nWed,NY,22\nWed,LA,7\nThu,NY,13\nThu,LA,11\n"

// refSessions is the mixed workload both the cluster and the single-node
// baseline create: two same-source income sessions (they must co-locate),
// a distinct generator and a CSV source.
func refSessions() []server.CreateRequest {
	return []server.CreateRequest{
		{ID: "inc-a", Generator: &server.GeneratorSpec{Name: "income", Rows: 300, Seed: 1},
			Prepare: server.PrepareSpec{SampleSize: 16, Seed: 1}},
		{ID: "inc-b", Generator: &server.GeneratorSpec{Name: "income", Rows: 500, Seed: 2},
			Prepare: server.PrepareSpec{SampleSize: 16, Seed: 1}},
		{ID: "gd", Generator: &server.GeneratorSpec{Name: "gdelt", Rows: 400, Seed: 1},
			Prepare: server.PrepareSpec{SampleSize: 16, Seed: 1}},
		{ID: "csv", CSV: testCSV, Measure: "Delay"},
	}
}

// TestClusterMatchesSingleNodeBaseline is the core equivalence check: the
// routed 3-shard cluster must be observationally identical to one daemon —
// same rules, same explores, same append effects — and stay so under a
// concurrent mixed storm. Run with -race.
func TestClusterMatchesSingleNodeBaseline(t *testing.T) {
	cl := newCluster(t, 3, false)
	single := server.New(server.Config{})
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	sc := &server.Client{BaseURL: sts.URL, HTTP: &http.Client{Timeout: time.Minute}}

	reqs := refSessions()
	for _, req := range reqs {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("cluster create %q: %v", req.ID, err)
		}
		if _, err := sc.CreateSession(req); err != nil {
			t.Fatalf("single create %q: %v", req.ID, err)
		}
	}

	// Sequential reference pass: every (session, seed) answer through the
	// router must equal the single node's.
	seeds := []int64{1, 2}
	refs := map[string]map[int64]server.MineResponse{}
	for _, req := range reqs {
		refs[req.ID] = map[int64]server.MineResponse{}
		for _, seed := range seeds {
			mreq := server.MineRequest{K: 3, SampleSize: 16, Seed: seed}
			want, err := sc.Mine(req.ID, mreq)
			if err != nil {
				t.Fatalf("single mine %q seed %d: %v", req.ID, seed, err)
			}
			got, err := cl.c.Mine(req.ID, mreq)
			if err != nil {
				t.Fatalf("cluster mine %q seed %d: %v", req.ID, seed, err)
			}
			assertSameRules(t, fmt.Sprintf("mine %q seed %d", req.ID, seed), got.Rules, want.Rules)
			refs[req.ID][seed] = want
		}
		ereq := server.ExploreRequest{K: 2, GroupBys: 1, Seed: 1}
		want, err := sc.Explore(req.ID, ereq)
		if err != nil {
			t.Fatalf("single explore %q: %v", req.ID, err)
		}
		got, err := cl.c.Explore(req.ID, ereq)
		if err != nil {
			t.Fatalf("cluster explore %q: %v", req.ID, err)
		}
		assertSameRules(t, fmt.Sprintf("explore %q", req.ID), got.Rules, want.Rules)
	}

	// A repeat of an already-asked query must come back from the shard's
	// result cache, visible through the proxy.
	repeat, err := cl.c.Mine("inc-a", server.MineRequest{K: 3, SampleSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("repeat mine: %v", err)
	}
	if !repeat.Cached {
		t.Error("repeat query did not report \"cached\": true through the proxy")
	}

	// Appends must have identical effects on both sides.
	row := server.RowJSON{Dims: []string{"Fri", "NY"}, Measure: 55}
	areq := server.AppendRequest{Rows: []server.RowJSON{row, row}, MineRequest: server.MineRequest{K: 2}}
	wantA, err := sc.AppendRows("csv", areq)
	if err != nil {
		t.Fatalf("single append: %v", err)
	}
	gotA, err := cl.c.AppendRows("csv", areq)
	if err != nil {
		t.Fatalf("cluster append: %v", err)
	}
	if gotA.Rows != wantA.Rows || gotA.Remined != wantA.Remined {
		t.Fatalf("append through router: rows=%d remined=%v, single node rows=%d remined=%v",
			gotA.Rows, gotA.Remined, wantA.Rows, wantA.Remined)
	}
	info, err := cl.c.GetSession("csv")
	if err != nil {
		t.Fatalf("get csv: %v", err)
	}
	if info.Stats == nil || info.Stats.Epoch != 1 {
		t.Fatalf("csv session epoch after append: %+v, want 1", info.Stats)
	}
	mreq := server.MineRequest{K: 2, Seed: 1}
	want, err := sc.Mine("csv", mreq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.c.Mine("csv", mreq)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRules(t, "post-append mine", got.Rules, want.Rules)
	// Both sides absorbed the same append, so refresh the csv references
	// for the storm from the single node's post-append answers.
	for _, seed := range seeds {
		ref, err := sc.Mine("csv", server.MineRequest{K: 3, SampleSize: 16, Seed: seed})
		if err != nil {
			t.Fatalf("refreshing csv ref seed %d: %v", seed, err)
		}
		refs["csv"][seed] = ref
	}

	// Concurrent mixed storm against the reference answers: 6 query
	// workers over the ref sessions, 2 append workers on their own
	// sessions, 1 worker hammering the control plane. Everything here is
	// what -race watches.
	for _, id := range []string{"app-x", "app-y"} {
		req := server.CreateRequest{
			ID:        id,
			Generator: &server.GeneratorSpec{Name: "income", Rows: 250, Seed: 9},
			Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
		}
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %q: %v", id, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				req := reqs[(w+i)%len(reqs)]
				seed := seeds[(w+i)%len(seeds)]
				got, err := cl.c.Mine(req.ID, server.MineRequest{K: 3, SampleSize: 16, Seed: seed})
				if err != nil {
					errs <- fmt.Errorf("storm mine %q seed %d: %w", req.ID, seed, err)
					return
				}
				want := refs[req.ID][seed]
				if len(got.Rules) != len(want.Rules) {
					errs <- fmt.Errorf("storm mine %q seed %d: %d rules, want %d", req.ID, seed, len(got.Rules), len(want.Rules))
					return
				}
				for j := range got.Rules {
					if got.Rules[j].Display != want.Rules[j].Display || got.Rules[j].Count != want.Rules[j].Count {
						errs <- fmt.Errorf("storm mine %q seed %d diverged at rule %d", req.ID, seed, j)
						return
					}
				}
			}
		}(w)
	}
	for w, id := range []string{"app-x", "app-y"} {
		row := appendRow(t, cl.c, id, float64(10+w))
		wg.Add(1)
		go func(id string, row server.RowJSON) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := cl.c.AppendRows(id, server.AppendRequest{
					Rows:        []server.RowJSON{row},
					MineRequest: server.MineRequest{K: 2},
				}); err != nil {
					errs <- fmt.Errorf("storm append %q: %w", id, err)
					return
				}
			}
		}(id, row)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := cl.c.ListSessions(); err != nil {
				errs <- fmt.Errorf("storm list: %w", err)
				return
			}
			if _, err := cl.c.Health(); err != nil {
				errs <- fmt.Errorf("storm health: %w", err)
				return
			}
			if _, err := cl.c.MetricsText(); err != nil {
				errs <- fmt.Errorf("storm metrics: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, id := range []string{"app-x", "app-y"} {
		info, err := cl.c.GetSession(id)
		if err != nil {
			t.Fatalf("get %q: %v", id, err)
		}
		if info.Stats == nil || info.Stats.Epoch != 3 {
			t.Errorf("session %q absorbed epoch %v, want 3", id, info.Stats)
		}
	}
}

// TestPlacementDeterministicByFingerprint pins the placement contract:
// explicit-id sessions land exactly where consistent hashing over their
// spec fingerprint says, same-source sessions co-locate, and auto-id
// sessions land where their assigned id hashes.
func TestPlacementDeterministicByFingerprint(t *testing.T) {
	cl := newCluster(t, 3, false)
	reqs := refSessions()
	for _, req := range reqs {
		want, err := cl.rt.Place(spec.RoutingKey(mustSpec(t, req)))
		if err != nil {
			t.Fatalf("placing %q: %v", req.ID, err)
		}
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %q: %v", req.ID, err)
		}
		if got := cl.holder(t, req.ID).base; got != want {
			t.Errorf("session %q landed on %s, placement said %s", req.ID, got, want)
		}
	}

	// Same source, different name: the fingerprint is the routing key, so
	// both sessions must share a shard (and therefore its result cache).
	twin := reqs[0]
	twin.ID = "inc-a-twin"
	if _, err := cl.c.CreateSession(twin); err != nil {
		t.Fatalf("creating twin: %v", err)
	}
	if a, b := cl.holder(t, "inc-a").base, cl.holder(t, "inc-a-twin").base; a != b {
		t.Errorf("same-source sessions split across %s and %s; they must co-locate", a, b)
	}

	// Anonymous sessions route by their assigned id instead, so identical
	// specs spread rather than pile up.
	auto, err := cl.c.CreateSession(server.CreateRequest{
		Generator: &server.GeneratorSpec{Name: "income", Rows: 300, Seed: 1},
		Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
	})
	if err != nil {
		t.Fatalf("auto-id create: %v", err)
	}
	if auto.ID == "" {
		t.Fatal("auto-id create returned an empty id")
	}
	want, err := cl.rt.Place(spec.RoutingKeyForID(auto.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.holder(t, auto.ID).base; got != want {
		t.Errorf("auto-id session %q landed on %s, id-hash placement said %s", auto.ID, got, want)
	}
}

// TestFailoverKillAndRestore kills a shard mid-traffic and requires the
// router to (1) answer clean 502/503 JSON for that shard's sessions, (2)
// serve every other shard unimpeded, and (3) resume the shard's sessions
// at their prior epochs once it restarts from its snapshot directory.
func TestFailoverKillAndRestore(t *testing.T) {
	cl := newCluster(t, 3, true)

	// Spread sessions until at least two shards hold one; fingerprints are
	// deterministic, so this converges immediately in practice.
	mreq := server.MineRequest{K: 2, SampleSize: 16, Seed: 1}
	baselines := map[string]server.MineResponse{}
	byShard := map[string][]string{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("f%d", i)
		if _, err := cl.c.CreateSession(server.CreateRequest{
			ID:        id,
			Generator: &server.GeneratorSpec{Name: "income", Rows: 250, Seed: int64(i + 1)},
			Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
		}); err != nil {
			t.Fatalf("creating %q: %v", id, err)
		}
		resp, err := cl.c.Mine(id, mreq)
		if err != nil {
			t.Fatalf("baseline mine %q: %v", id, err)
		}
		baselines[id] = resp
		sh := cl.holder(t, id)
		byShard[sh.base] = append(byShard[sh.base], id)
	}
	if len(byShard) < 2 {
		t.Fatalf("all sessions landed on one shard; placement spread is broken: %v", byShard)
	}

	// Victim: the shard holding f0. Append one batch first so the restart
	// has a journaled epoch to prove.
	var victim *testShard
	for _, sh := range cl.shards {
		for _, id := range byShard[sh.base] {
			if id == "f0" {
				victim = sh
			}
		}
	}
	row := appendRow(t, cl.c, "f0", 42)
	if _, err := cl.c.AppendRows("f0", server.AppendRequest{
		Rows: []server.RowJSON{row}, MineRequest: server.MineRequest{K: 2},
	}); err != nil {
		t.Fatalf("appending to f0: %v", err)
	}
	postAppend, err := cl.c.Mine("f0", mreq)
	if err != nil {
		t.Fatalf("post-append mine: %v", err)
	}

	victim.kill()

	// The first request discovers the dead shard (transport error → 502 and
	// a mark-down); every request after that fails fast with 503. Both are
	// JSON with the uniform error shape.
	for attempt := 0; attempt < 2; attempt++ {
		status, body := rawMine(t, cl.ts.URL, "f0", mreq)
		if status != http.StatusBadGateway && status != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d against dead shard: status %d, want 502/503; body %s", attempt, status, body)
		}
		var e server.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("attempt %d: error body not the uniform JSON shape: %s", attempt, body)
		}
		if attempt == 1 && status != http.StatusServiceUnavailable {
			t.Fatalf("marked-down shard answered %d, want fast 503", status)
		}
	}

	// Everyone else is unimpeded, and the control plane reports the damage.
	for base, ids := range byShard {
		if base == victim.base {
			continue
		}
		for _, id := range ids {
			resp, err := cl.c.Mine(id, mreq)
			if err != nil {
				t.Fatalf("mine %q with a dead sibling shard: %v", id, err)
			}
			assertSameRules(t, fmt.Sprintf("degraded mine %q", id), resp.Rules, baselines[id].Rules)
		}
	}
	cl.rt.CheckHealth()
	var h HealthResponse
	if err := cl.c.Do("GET", "/v1/healthz", nil, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.ShardsUp != 2 {
		t.Fatalf("router health with one dead shard: %+v", h)
	}
	var shardsResp ShardsResponse
	if err := cl.c.Do("GET", "/v1/shards", nil, &shardsResp); err != nil {
		t.Fatal(err)
	}
	for _, si := range shardsResp.Shards {
		if wantUp := si.Base != victim.base; si.Up != wantUp {
			t.Errorf("shard %s up=%v, want %v", si.Base, si.Up, wantUp)
		}
	}

	// A down shard's sessions must 503, never 404: the data still exists.
	if status, _ := rawMine(t, cl.ts.URL, "f0", mreq); status != http.StatusServiceUnavailable {
		t.Fatalf("dead shard's session answered %d, want 503", status)
	}

	// A named create whose home shard is down must also 503 — landing the
	// name on the ring successor would split-brain it when the shard
	// returns with its sessions.
	for seed := int64(1); ; seed++ {
		cand := server.CreateRequest{
			ID:        fmt.Sprintf("homed-%d", seed),
			Generator: &server.GeneratorSpec{Name: "income", Rows: 250, Seed: seed + 100},
			Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
		}
		if cl.shards[cl.rt.ring.walk(spec.RoutingKey(mustSpec(t, cand)))[0]] != victim {
			if seed > 100 {
				t.Fatal("no spec homed on the victim shard in 100 seeds")
			}
			continue
		}
		if _, err := cl.c.CreateSession(cand); err == nil || !strings.Contains(err.Error(), "(503)") {
			t.Errorf("create homed on a dead shard: got %v, want 503", err)
		}
		break
	}

	// Restart on the same address from the same snapshot directory; the
	// router's next health sweep brings it back and its sessions resume at
	// their prior epochs with baseline-identical answers.
	restored := victim.restart(t)
	t.Cleanup(restored.kill)
	cl.rt.CheckHealth()
	info, err := cl.c.GetSession("f0")
	if err != nil {
		t.Fatalf("get f0 after restart: %v", err)
	}
	if info.Stats == nil || info.Stats.Epoch != 1 {
		t.Fatalf("f0 epoch after restart: %+v, want 1", info.Stats)
	}
	resp, err := cl.c.Mine("f0", mreq)
	if err != nil {
		t.Fatalf("mine f0 after restart: %v", err)
	}
	assertSameRules(t, "restored mine", resp.Rules, postAppend.Rules)
	for _, id := range byShard[victim.base] {
		if id == "f0" {
			continue
		}
		resp, err := cl.c.Mine(id, mreq)
		if err != nil {
			t.Fatalf("mine %q after restart: %v", id, err)
		}
		assertSameRules(t, fmt.Sprintf("restored mine %q", id), resp.Rules, baselines[id].Rules)
	}
	if err := cl.c.Do("GET", "/v1/healthz", nil, &h); err != nil || h.Status != "ok" {
		t.Fatalf("router health after restore: %+v, %v", h, err)
	}
}

// rawMine posts a mine without the typed client, returning status and body
// for asserting on error responses.
func rawMine(t *testing.T, baseURL, id string, req server.MineRequest) (int, []byte) {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(baseURL+"/v1/datasets/"+id+"/mine", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatalf("posting mine: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading error body: %v", err)
	}
	return resp.StatusCode, body
}

// TestMergedListingAndMetricsRollup checks the two cluster-wide reads: the
// merged /v1/datasets listing (sorted, deduplicated, complete) and the
// /v1/metrics rollup (router families, summed shard scalars, per-shard
// labels injected into labelled series).
func TestMergedListingAndMetricsRollup(t *testing.T) {
	cl := newCluster(t, 3, false)
	reqs := refSessions()
	for _, req := range reqs {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %q: %v", req.ID, err)
		}
	}
	if _, err := cl.c.Mine("inc-a", server.MineRequest{K: 2, SampleSize: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	list, err := cl.c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != len(reqs) {
		t.Fatalf("merged listing has %d sessions, want %d: %+v", len(list.Sessions), len(reqs), list)
	}
	seen := map[string]bool{}
	for i, info := range list.Sessions {
		if seen[info.ID] {
			t.Errorf("session %q listed twice", info.ID)
		}
		seen[info.ID] = true
		if i > 0 && list.Sessions[i-1].ID > info.ID {
			t.Errorf("listing not sorted: %q before %q", list.Sessions[i-1].ID, info.ID)
		}
	}
	for _, req := range reqs {
		if !seen[req.ID] {
			t.Errorf("session %q missing from the merged listing", req.ID)
		}
	}

	text, err := cl.c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sirumr_shards 3",
		"sirumr_shards_up 3",
		fmt.Sprintf("sirumr_sessions %d", len(reqs)),
		`sirumr_shard_up{shard="ts0"} 1`,
		"sirumd_sessions 4", // summed across shards
		`{shard="ts`,        // per-shard label injected into shard series
		"sirumd_session_rows{shard=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics rollup missing %q:\n%s", want, text)
		}
	}
	// Families must appear exactly once even though three shards reported
	// them.
	if n := strings.Count(text, "# TYPE sirumd_sessions gauge"); n != 1 {
		t.Errorf("sirumd_sessions TYPE line appears %d times, want 1", n)
	}
}

// TestRouterValidationAndDrain covers the router-local request validation
// (bad ids, bad sources, duplicates, unknown ops) and the drain half of
// shard lifecycle: a draining shard serves its sessions but receives no
// new ones, and placement falls through to the ring successor.
func TestRouterValidationAndDrain(t *testing.T) {
	cl := newCluster(t, 3, false)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"invalid id", "POST", "/v1/datasets", server.CreateRequest{ID: "bad/id", Generator: &server.GeneratorSpec{Name: "income"}}, http.StatusBadRequest},
		{"both sources", "POST", "/v1/datasets", server.CreateRequest{ID: "x", Generator: &server.GeneratorSpec{Name: "income"}, CSV: "a,m\n1,2\n", Measure: "m"}, http.StatusBadRequest},
		{"no source", "POST", "/v1/datasets", server.CreateRequest{ID: "x"}, http.StatusBadRequest},
		{"unknown dataset", "GET", "/v1/datasets/nope", nil, http.StatusNotFound},
		{"unknown op", "POST", "/v1/datasets/nope/scan", struct{}{}, http.StatusNotFound},
		{"unknown shard drain", "POST", "/v1/shards/zz/drain", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		err := cl.c.Do(tc.method, tc.path, tc.body, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("(%d)", tc.want)) {
			t.Errorf("%s: got %v, want status %d", tc.name, err, tc.want)
		}
	}

	// Duplicate explicit id: rejected by the router without a shard hop.
	req := server.CreateRequest{
		ID:        "dup",
		Generator: &server.GeneratorSpec{Name: "income", Rows: 250, Seed: 1},
		Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
	}
	if _, err := cl.c.CreateSession(req); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.c.CreateSession(req); err == nil || !strings.Contains(err.Error(), "(409)") {
		t.Errorf("duplicate create: got %v, want 409", err)
	}

	// Find a spec homed on shard 0, drain shard 0, and watch the create
	// fall through to the ring successor while existing sessions keep
	// serving.
	var homed server.CreateRequest
	for seed := int64(1); ; seed++ {
		cand := server.CreateRequest{
			ID:        fmt.Sprintf("drain-%d", seed),
			Generator: &server.GeneratorSpec{Name: "income", Rows: 250, Seed: seed},
			Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
		}
		home, err := cl.rt.Place(spec.RoutingKey(mustSpec(t, cand)))
		if err != nil {
			t.Fatal(err)
		}
		if home == cl.shards[0].base {
			homed = cand
			break
		}
		if seed > 100 {
			t.Fatal("no spec homed on shard 0 in 100 seeds")
		}
	}
	if err := cl.c.Do("POST", "/v1/shards/ts0/drain", nil, nil); err != nil {
		t.Fatalf("draining ts0: %v", err)
	}
	fallback, err := cl.rt.Place(spec.RoutingKey(mustSpec(t, homed)))
	if err != nil {
		t.Fatal(err)
	}
	if fallback == cl.shards[0].base {
		t.Fatal("draining shard still accepts placements")
	}
	if _, err := cl.c.CreateSession(homed); err != nil {
		t.Fatal(err)
	}
	if got := cl.holder(t, homed.ID).base; got != fallback {
		t.Errorf("drained-away session landed on %s, want ring successor %s", got, fallback)
	}
	// Existing sessions on the draining shard still answer.
	if someID := sessionOn(t, cl, cl.shards[0]); someID != "" {
		if _, err := cl.c.Mine(someID, server.MineRequest{K: 2, SampleSize: 16, Seed: 1}); err != nil {
			t.Errorf("draining shard refused an existing session's query: %v", err)
		}
	}
	if err := cl.c.Do("POST", "/v1/shards/ts0/undrain", nil, nil); err != nil {
		t.Fatalf("undraining: %v", err)
	}
	back, err := cl.rt.Place(spec.RoutingKey(mustSpec(t, homed)))
	if err != nil {
		t.Fatal(err)
	}
	if back != cl.shards[0].base {
		t.Errorf("undrained shard not receiving placements again: %s", back)
	}
}

// sessionOn returns some session id held by sh, or "".
func sessionOn(t *testing.T, cl *cluster, sh *testShard) string {
	t.Helper()
	list, err := sh.c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) == 0 {
		return ""
	}
	return list.Sessions[0].ID
}

// TestRouterTableResync proves a router restart converges: a *fresh*
// router over shards that already hold sessions resolves them from the
// shard listings instead of 404ing.
func TestRouterTableResync(t *testing.T) {
	cl := newCluster(t, 3, false)
	if _, err := cl.c.CreateSession(refSessions()[0]); err != nil {
		t.Fatal(err)
	}

	bases := make([]string, len(cl.shards))
	for i, sh := range cl.shards {
		bases[i] = sh.base
	}
	rt2, err := New(Config{Shards: bases, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	ts2 := httptest.NewServer(rt2.Handler())
	defer ts2.Close()
	c2 := &server.Client{BaseURL: ts2.URL, HTTP: &http.Client{Timeout: time.Minute}}
	if _, err := c2.GetSession("inc-a"); err != nil {
		t.Fatalf("fresh router cannot resolve a pre-existing session: %v", err)
	}
	// And a genuinely unknown id is still a 404, not an infinite resync.
	if err := c2.Do("GET", "/v1/datasets/ghost", nil, nil); err == nil || !strings.Contains(err.Error(), "(404)") {
		t.Errorf("unknown id: got %v, want 404", err)
	}

	// Merge semantics: an entry the listings don't (yet) know — a create
	// committing concurrently with a listing snapshot — survives Resync
	// instead of being clobbered into a 404 behind the resync throttle.
	cl.rt.setTable("just-created", cl.rt.shards[0])
	cl.rt.Resync()
	cl.rt.mu.Lock()
	_, kept := cl.rt.table["just-created"]
	cl.rt.mu.Unlock()
	if !kept {
		t.Error("Resync dropped a table entry absent from the listing snapshot")
	}
}

// TestRingProperties pins the ring's determinism and spread: every walk
// covers all shards exactly once, and 32 id-hashed keys stay within 2x of
// the mean across 3 shards.
func TestRingProperties(t *testing.T) {
	r := newRing(3, 128)
	counts := make([]int, 3)
	for i := 1; i <= 32; i++ {
		walk := r.walk(spec.RoutingKeyForID(fmt.Sprintf("r%d", i)))
		if len(walk) != 3 {
			t.Fatalf("walk covered %d shards, want 3", len(walk))
		}
		seen := map[int]bool{}
		for _, s := range walk {
			if seen[s] {
				t.Fatalf("walk repeated shard %d", s)
			}
			seen[s] = true
		}
		counts[walk[0]]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if mean := 32.0 / 3.0; float64(max) > 2*mean {
		t.Errorf("id placement imbalance: %v (max %d vs mean %.1f)", counts, max, mean)
	}
	// Same key, same walk, forever.
	k := spec.RoutingKey(spec.DatasetSpec{Version: spec.Version, Generator: &spec.GeneratorSource{Name: "income", Rows: 300, Seed: 1}})
	w1, w2 := r.walk(k), newRing(3, 128).walk(k)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("ring walk not deterministic: %v vs %v", w1, w2)
		}
	}
}

// TestNewRejectsBadShardList pins boot-time validation of the topology: a
// shard entry the router could never reach is refused by New instead of
// passing boot and then failing every request sent to it.
func TestNewRejectsBadShardList(t *testing.T) {
	cases := []struct {
		name   string
		shards []string
		ok     bool
	}{
		{"empty list", nil, false},
		{"empty entry", []string{"http://127.0.0.1:1", ""}, false},
		{"duplicate after trailing-slash trim", []string{"http://127.0.0.1:1/", "http://127.0.0.1:1"}, false},
		{"leading space", []string{" http://127.0.0.1:1"}, false},
		{"no scheme, ip host", []string{"127.0.0.1:8080"}, false},
		{"no scheme, name host", []string{"h1:8080"}, false},
		{"ftp scheme", []string{"ftp://x"}, false},
		{"http and https", []string{"http://127.0.0.1:1/", "https://127.0.0.1:2"}, true},
	}
	for _, tc := range cases {
		rt, err := New(Config{Shards: tc.shards, HealthInterval: -1})
		if rt != nil {
			rt.Close()
		}
		if ok := err == nil; ok != tc.ok {
			t.Errorf("%s: New(%q) error %v, want accepted=%v", tc.name, tc.shards, err, tc.ok)
		}
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRouterBodyCap pins the router's 413 paths. A declared length over
// the cap is refused without a shard hop; a chunked append that crosses
// the cap mid-stream is refused after the relay began, without blaming the
// shard: it stays up, the proxy-error counter does not move, and the
// session keeps serving.
func TestRouterBodyCap(t *testing.T) {
	// The shard is a real daemon, except that it discards a body of
	// undeclared length unread instead of buffering the whole cap.
	srv := server.New(server.Config{})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength < 0 {
			io.Copy(io.Discard, r.Body)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer shard.Close()
	rt, err := New(Config{Shards: []string{shard.URL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	c := &server.Client{BaseURL: ts.URL, HTTP: &http.Client{Timeout: time.Minute}}
	if _, err := c.CreateSession(server.CreateRequest{ID: "cap", CSV: testCSV, Measure: "Delay"}); err != nil {
		t.Fatal(err)
	}

	post := func(path string, body io.Reader, length int64) int {
		req := httptest.NewRequest("POST", path, body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	proxied, errs := rt.proxied.Load(), rt.proxyErrs.Load()
	for _, path := range []string{"/v1/datasets", "/v1/datasets/cap/append"} {
		if code := post(path, strings.NewReader("{}"), server.DefaultMaxBodyBytes+1); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s declaring a length over the cap: status %d, want 413", path, code)
		}
	}
	if got := rt.proxied.Load(); got != proxied {
		t.Fatalf("declared lengths over the cap reached the shard (%d proxied requests)", got-proxied)
	}

	overCap := io.MultiReader(strings.NewReader(`{"rows":[`), io.LimitReader(spaces{}, server.DefaultMaxBodyBytes))
	if code := post("/v1/datasets/cap/append", overCap, -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked append over the cap: status %d, want 413", code)
	}

	var shards ShardsResponse
	if err := c.Do("GET", "/v1/shards", nil, &shards); err != nil {
		t.Fatal(err)
	}
	if !shards.Shards[0].Up {
		t.Errorf("shard marked down after a client's oversized body: %s", shards.Shards[0].LastError)
	}
	if got := rt.proxyErrs.Load(); got != errs {
		t.Errorf("oversized bodies counted as %d shard proxy error(s)", got-errs)
	}
	if _, err := c.Mine("cap", server.MineRequest{K: 2}); err != nil {
		t.Errorf("mine after the oversized append: %v", err)
	}
}
