package router

// Migration and fault-attribution coverage for the router: draining a
// shard through POST /v1/shards/{id}/migrate, resuming after a failed
// attempt, surviving a concurrent query storm, and the regression tests
// for the client-abort, auto-id-reuse and double-close bugs.

import (
	"fmt"
	"net"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sirum/internal/server"
)

// migrate POSTs the migrate endpoint for a shard and decodes the report.
func migrate(t *testing.T, cl *cluster, sh *testShard) MigrateResponse {
	t.Helper()
	var resp MigrateResponse
	if err := cl.c.Do("POST", "/v1/shards/"+sh.conf.ShardID+"/migrate", nil, &resp); err != nil {
		t.Fatalf("migrating %s: %v", sh.conf.ShardID, err)
	}
	return resp
}

// TestMigrateMovesEverySessionOff is the tentpole's happy path: every
// session on the origin moves to another shard, fingerprints and epochs
// survive, mining results are identical, repeat queries hit the
// destination's cache, and the emptied origin holds nothing.
func TestMigrateMovesEverySessionOff(t *testing.T) {
	cl := newCluster(t, 3, false)
	for _, req := range refSessions() {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %s: %v", req.ID, err)
		}
	}
	row := appendRow(t, cl.c, "inc-a", 5)
	if _, err := cl.c.AppendRows("inc-a", server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
		t.Fatalf("appending to inc-a: %v", err)
	}

	origin := cl.holder(t, "inc-a")
	listing, err := origin.c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) == 0 {
		t.Fatal("origin shard holds no sessions")
	}
	mreq := server.MineRequest{K: 3, SampleSize: 16, Seed: 11}
	type baseline struct {
		fp    string
		epoch int64
		rules []server.RuleJSON
	}
	base := make(map[string]baseline)
	for _, entry := range listing.Sessions {
		info, err := cl.c.GetSession(entry.ID)
		if err != nil {
			t.Fatalf("baseline get %s: %v", entry.ID, err)
		}
		mr, err := cl.c.Mine(entry.ID, mreq)
		if err != nil {
			t.Fatalf("baseline mine %s: %v", entry.ID, err)
		}
		base[entry.ID] = baseline{fp: info.Stats.Fingerprint, epoch: info.Stats.Epoch, rules: mr.Rules}
	}

	resp := migrate(t, cl, origin)
	if resp.Remaining != 0 || len(resp.Failed) != 0 {
		t.Fatalf("migration left %d sessions behind: %+v", resp.Remaining, resp.Failed)
	}
	if len(resp.Moved) != len(listing.Sessions) {
		t.Fatalf("moved %d sessions, origin held %d", len(resp.Moved), len(listing.Sessions))
	}
	if !resp.Draining {
		t.Fatal("migrated shard not reported draining")
	}
	after, err := origin.c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Sessions) != 0 {
		t.Fatalf("origin still holds %d sessions after migration", len(after.Sessions))
	}

	for id, b := range base {
		if cl.holder(t, id) == origin {
			t.Fatalf("session %s still resolves to the drained shard", id)
		}
		info, err := cl.c.GetSession(id)
		if err != nil {
			t.Fatalf("routed get of %s after migration: %v", id, err)
		}
		if info.Stats.Fingerprint != b.fp || info.Stats.Epoch != b.epoch {
			t.Fatalf("%s migrated to fp=%s epoch=%d, want fp=%s epoch=%d",
				id, info.Stats.Fingerprint, info.Stats.Epoch, b.fp, b.epoch)
		}
		mr, err := cl.c.Mine(id, mreq)
		if err != nil {
			t.Fatalf("mining %s on destination: %v", id, err)
		}
		assertSameRules(t, "migrated "+id, mr.Rules, b.rules)
		again, err := cl.c.Mine(id, mreq)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("repeat mine of %s not served from the destination cache", id)
		}
		assertSameRules(t, "cached "+id, again.Rules, b.rules)
	}

	// Writes keep flowing to the new home.
	row2 := appendRow(t, cl.c, "inc-a", 7)
	if _, err := cl.c.AppendRows("inc-a", server.AppendRequest{Rows: []server.RowJSON{row2}}); err != nil {
		t.Fatalf("append after migration: %v", err)
	}
	info, err := cl.c.GetSession("inc-a")
	if err != nil {
		t.Fatal(err)
	}
	if want := base["inc-a"].epoch + 1; info.Stats.Epoch != want {
		t.Fatalf("post-migration append: epoch %d, want %d", info.Stats.Epoch, want)
	}

	// Re-running the migration on an emptied shard moves nothing.
	resp = migrate(t, cl, origin)
	if len(resp.Moved) != 0 || resp.Remaining != 0 {
		t.Fatalf("second migrate on empty shard: %+v", resp)
	}
}

// TestMigrateFailureLeavesOriginServing pins the recovery contract: when
// no shard can accept the sessions, the migrate call itemizes failures,
// the origin copy keeps serving reads and writes, and a later re-run
// finishes the move without losing an epoch.
func TestMigrateFailureLeavesOriginServing(t *testing.T) {
	cl := newCluster(t, 2, false)
	for _, req := range refSessions() {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %s: %v", req.ID, err)
		}
	}
	origin := cl.holder(t, "inc-a")
	var peer *testShard
	var peerIdx int
	for i, sh := range cl.shards {
		if sh != origin {
			peer, peerIdx = sh, i
		}
	}
	listing, err := origin.c.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	before, err := cl.c.GetSession("inc-a")
	if err != nil {
		t.Fatal(err)
	}

	peer.kill()
	cl.rt.CheckHealth()
	resp := migrate(t, cl, origin)
	if len(resp.Moved) != 0 || len(resp.Failed) != len(listing.Sessions) || resp.Remaining != len(listing.Sessions) {
		t.Fatalf("migration with no destination: %+v", resp)
	}

	// The origin still owns and serves every session.
	if _, err := origin.c.GetSession("inc-a"); err != nil {
		t.Fatalf("origin lost its copy after failed migration: %v", err)
	}
	if _, err := cl.c.Mine("inc-a", server.MineRequest{K: 2, SampleSize: 16, Seed: 3}); err != nil {
		t.Fatalf("routed mine during failed drain: %v", err)
	}
	row := appendRow(t, cl.c, "inc-a", 4)
	if _, err := cl.c.AppendRows("inc-a", server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
		t.Fatalf("routed append during failed drain: %v", err)
	}

	// The peer returns; re-running the migration completes it.
	cl.shards[peerIdx] = peer.restart(t)
	cl.rt.CheckHealth()
	resp = migrate(t, cl, origin)
	if resp.Remaining != 0 || len(resp.Moved) != len(listing.Sessions) {
		t.Fatalf("resumed migration: %+v", resp)
	}
	info, err := cl.c.GetSession("inc-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Fingerprint != before.Stats.Fingerprint || info.Stats.Epoch != before.Stats.Epoch+1 {
		t.Fatalf("resumed migration landed fp=%s epoch=%d, want fp=%s epoch=%d",
			info.Stats.Fingerprint, info.Stats.Epoch, before.Stats.Fingerprint, before.Stats.Epoch+1)
	}
	if cl.holder(t, "inc-a") == origin {
		t.Fatal("session still on the drained origin after resume")
	}
}

// TestConcurrentStormDuringMigration migrates a shard out from under a
// live mixed workload: miners, an explorer and an appender hammer a
// session while its shard drains. Every request must succeed, every acked
// append must be exactly-once in the destination's epoch, and the
// destination's result cache must serve repeats. Run with -race.
func TestConcurrentStormDuringMigration(t *testing.T) {
	cl := newCluster(t, 3, false)
	for _, req := range refSessions() {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %s: %v", req.ID, err)
		}
	}
	const target = "inc-b"
	origin := cl.holder(t, target)
	before, err := cl.c.GetSession(target)
	if err != nil {
		t.Fatal(err)
	}
	dims := make([]string, len(before.Dims))
	for i := range dims {
		dims[i] = "stormed"
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		appends  atomic.Int64
	)
	stop := make(chan struct{})
	record := func(ctx string, err error) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf("%s: %v", ctx, err))
		mu.Unlock()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := server.MineRequest{K: 2 + i%3, SampleSize: 16, Seed: int64(w*100 + i%7)}
				if _, err := cl.c.Mine(target, req); err != nil {
					record(fmt.Sprintf("miner %d", w), err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := server.ExploreRequest{K: 2, GroupBys: 2, Seed: int64(i % 5)}
			if _, err := cl.c.Explore(target, req); err != nil {
				record("explorer", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := server.RowJSON{Dims: dims, Measure: float64(i%9 + 1)}
			if _, err := cl.c.AppendRows(target, server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
				record("appender", err)
				return
			}
			appends.Add(1)
		}
	}()

	time.Sleep(100 * time.Millisecond) // let the storm establish itself
	resp := migrate(t, cl, origin)
	time.Sleep(50 * time.Millisecond) // post-cutover traffic
	close(stop)
	wg.Wait()

	if len(failures) != 0 {
		t.Fatalf("%d requests failed during migration, first: %s", len(failures), failures[0])
	}
	if resp.Remaining != 0 || len(resp.Failed) != 0 {
		t.Fatalf("migration under storm left sessions behind: %+v", resp)
	}
	dest := cl.holder(t, target)
	if dest == origin {
		t.Fatal("target session never left the drained shard")
	}
	info, err := cl.c.GetSession(target)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Fingerprint != before.Stats.Fingerprint {
		t.Fatalf("fingerprint changed across migration: %s → %s", before.Stats.Fingerprint, info.Stats.Fingerprint)
	}
	if info.Stats.Epoch != appends.Load() {
		t.Fatalf("epoch %d after %d acked appends: appends lost or duplicated across the cut", info.Stats.Epoch, appends.Load())
	}
	direct, err := dest.c.GetSession(target)
	if err != nil {
		t.Fatalf("destination shard does not hold the session: %v", err)
	}
	if direct.Stats.Fingerprint != info.Stats.Fingerprint || direct.Stats.Epoch != info.Stats.Epoch {
		t.Fatalf("router and destination disagree: %+v vs %+v", info.Stats, direct.Stats)
	}
	mreq := server.MineRequest{K: 4, SampleSize: 16, Seed: 99}
	first, err := cl.c.Mine(target, mreq)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cl.c.Mine(target, mreq)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat mine after migration not served from the destination cache")
	}
	assertSameRules(t, "post-storm cache", again.Rules, first.Rules)
}

// TestClientAbortDoesNotMarkShardDown pins the fault-attribution fix: a
// client dying mid-append is the client's failure, not the shard's. The
// shard must stay up and keep serving.
func TestClientAbortDoesNotMarkShardDown(t *testing.T) {
	cl := newCluster(t, 2, false)
	if _, err := cl.c.CreateSession(server.CreateRequest{
		ID:        "abort",
		Generator: &server.GeneratorSpec{Name: "income", Rows: 200, Seed: 1},
		Prepare:   server.PrepareSpec{SampleSize: 16, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	errsBefore := cl.rt.proxyErrs.Load()

	// A raw connection that promises a large append body, sends a sliver
	// and hangs up — the router is mid-relay to the shard when the read
	// fails.
	u, err := url.Parse(cl.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/datasets/abort/append HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n", u.Host)
	fmt.Fprintf(conn, `{"rows":[{"dims":`)
	time.Sleep(50 * time.Millisecond) // let the router pick up the request
	conn.Close()

	// Give the router time to misattribute if it is going to; the shard
	// must never flip down.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, sh := range cl.rt.shards {
			if sh.down.Load() {
				t.Fatalf("shard %s marked down after a client aborted its own upload: %s", sh.label(), sh.lastError())
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if errs := cl.rt.proxyErrs.Load(); errs != errsBefore {
		t.Fatalf("client abort counted as %d shard proxy error(s)", errs-errsBefore)
	}
	// The data path is untouched.
	if _, err := cl.c.Mine("abort", server.MineRequest{K: 2, SampleSize: 16, Seed: 5}); err != nil {
		t.Fatalf("mine after client abort: %v", err)
	}
	row := appendRow(t, cl.c, "abort", 3)
	if _, err := cl.c.AppendRows("abort", server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
		t.Fatalf("well-formed append after client abort: %v", err)
	}
}

// TestAutoIDSurvivesPartialResync pins the id-reuse fix: a fresh router
// that boots while the shard holding the highest auto id is unreachable
// must not hand that id out again — the create retries onto an unused id
// instead of surfacing a 409 the client never caused.
func TestAutoIDSurvivesPartialResync(t *testing.T) {
	cl := newCluster(t, 3, true)
	created := make(map[string]bool)
	var last string
	for i := 0; i < 4; i++ {
		info, err := cl.c.CreateSession(server.CreateRequest{
			Generator: &server.GeneratorSpec{Name: "income", Rows: 120 + 10*i, Seed: int64(i + 1)},
			Prepare:   server.PrepareSpec{SampleSize: 8, Seed: 1},
		})
		if err != nil {
			t.Fatalf("auto create %d: %v", i, err)
		}
		created[info.ID] = true
		last = info.ID
	}

	holder := cl.holder(t, last)
	var holderIdx int
	for i, sh := range cl.shards {
		if sh == holder {
			holderIdx = i
		}
	}
	holder.kill()

	// A second router boots against the degraded cluster: its resync
	// cannot see the sessions on the dead shard.
	bases := make([]string, len(cl.shards))
	for i, sh := range cl.shards {
		bases[i] = sh.base
	}
	rt2, err := New(Config{Shards: bases, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt2.Handler())
	defer func() { ts2.Close(); rt2.Close() }()
	c2 := newTestRouterClient(ts2)

	// The shard returns with its snapshotted sessions; the new router
	// learns it is up but has not re-listed its sessions.
	cl.shards[holderIdx] = holder.restart(t)
	rt2.CheckHealth()

	info, err := c2.CreateSession(server.CreateRequest{
		Generator: &server.GeneratorSpec{Name: "income", Rows: 90, Seed: 42},
		Prepare:   server.PrepareSpec{SampleSize: 8, Seed: 1},
	})
	if err != nil {
		t.Fatalf("auto create through rebooted router: %v", err)
	}
	if created[info.ID] {
		t.Fatalf("router reissued live auto id %s", info.ID)
	}

	// Every pre-existing session is still intact and reachable once the
	// new router resyncs.
	rt2.Resync()
	for id := range created {
		got, err := c2.GetSession(id)
		if err != nil {
			t.Fatalf("session %s lost after id-reuse scenario: %v", id, err)
		}
		if got.ID != id {
			t.Fatalf("session %s answers as %s", id, got.ID)
		}
	}
}

func newTestRouterClient(ts *httptest.Server) *server.Client {
	return &server.Client{BaseURL: ts.URL, HTTP: ts.Client()}
}

// TestConcurrentRouterClose races Close against itself, with and without
// the health loop running — the pre-fix select-then-close double-closed
// the stop channel and panicked. Run with -race.
func TestConcurrentRouterClose(t *testing.T) {
	cl := newCluster(t, 1, false)
	for i := 0; i < 10; i++ {
		conf := Config{Shards: []string{cl.shards[0].base}, HealthInterval: -1}
		if i%2 == 1 {
			conf.HealthInterval = time.Hour
		}
		rt, err := New(conf)
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := rt.Close(); err != nil {
					t.Errorf("concurrent close: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestGateMapEmptiesAfterChurn is the regression test for the gate leak:
// every session op and migration used to leave its id's gate in the map for
// the router's lifetime. After 100 sessions are created, appended to and
// deleted, with a migrate pass between the appends, no gate is left.
func TestGateMapEmptiesAfterChurn(t *testing.T) {
	cl := newCluster(t, 2, false)
	ids := make([]string, 100)
	for i := range ids {
		info, err := cl.c.CreateSession(server.CreateRequest{CSV: testCSV, Measure: "Delay"})
		if err != nil {
			t.Fatalf("creating session %d: %v", i, err)
		}
		ids[i] = info.ID
	}
	row := server.RowJSON{Dims: []string{"Fri", "SF"}, Measure: 5}
	for i, id := range ids {
		if i == len(ids)/2 {
			if resp := migrate(t, cl, cl.holder(t, ids[0])); len(resp.Failed) != 0 {
				t.Fatalf("migration failed: %+v", resp.Failed)
			}
		}
		if _, err := cl.c.AppendRows(id, server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
			t.Fatalf("appending to %s: %v", id, err)
		}
	}
	for _, id := range ids {
		if err := cl.c.DeleteSession(id); err != nil {
			t.Fatalf("deleting %s: %v", id, err)
		}
	}
	cl.rt.mu.Lock()
	left := len(cl.rt.gates)
	cl.rt.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d gates left after every session was deleted", left)
	}
}
