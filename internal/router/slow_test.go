package router

// Migration under a slow stretch: every shard answers late, mines and
// appends are still in flight, and drain passes move the sessions around.
// The conditions of a benchmark route run that once reported one failed op
// per drain pass without saying why.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"sirum/internal/server"
)

// slowed delays every request by d before the shard serves it.
func slowed(d time.Duration) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			h.ServeHTTP(w, r)
		})
	}
}

// answerBits is a mine answer reduced to its bits: every rule's display,
// count, average and gain, then the KL divergence.
func answerBits(resp server.MineResponse) string {
	s := ""
	for _, r := range resp.Rules {
		s += fmt.Sprintf("%s/%d/%x/%x;", r.Display, r.Count, math.Float64bits(r.Avg), math.Float64bits(r.Gain))
	}
	return s + fmt.Sprintf("kl=%x", math.Float64bits(resp.KL))
}

// sessionState is what a migration must carry over unchanged.
type sessionState struct {
	rows   int
	epoch  int64
	answer string
}

var baselineMine = server.MineRequest{K: 3, SampleSize: 16, Seed: 7}

func stateOf(t *testing.T, c *server.Client, id string) sessionState {
	t.Helper()
	info, err := c.GetSession(id)
	if err != nil {
		t.Fatalf("getting %s: %v", id, err)
	}
	resp, err := c.Mine(id, baselineMine)
	if err != nil {
		t.Fatalf("baseline mine on %s: %v", id, err)
	}
	return sessionState{rows: info.Rows, epoch: info.Stats.Epoch, answer: answerBits(resp)}
}

// documented are the statuses a routed op may fail with while shards move:
// 404 (no such session), 409 (a conflicting or closed session), 502 (a
// shard failed mid-request) and 503 (the session's shard is down).
var documented = map[int]bool{404: true, 409: true, 502: true, 503: true}

var statusInErr = regexp.MustCompile(`\((\d{3})\)$`)

// TestMigrateWhileShardsSlowed runs a drain pass over every shard of a
// 3-shard cluster whose shards each answer 2–6 ms late, with two miners
// and an appender in flight throughout. Every failed op must end in a
// documented status; every migration must succeed; each quiet session
// keeps its rows, epoch and baseline answer to the bit, and the appended
// session holds exactly its acknowledged appends and answers as a single
// daemon that took the same appends does.
func TestMigrateWhileShardsSlowed(t *testing.T) {
	cl := newWrappedCluster(t, 3, false, func(i int) func(http.Handler) http.Handler {
		return slowed(time.Duration(2+2*i) * time.Millisecond)
	})
	reqs := refSessions()
	for _, req := range reqs {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %s: %v", req.ID, err)
		}
	}
	const busy = "inc-b"
	before := map[string]sessionState{}
	for _, req := range reqs {
		before[req.ID] = stateOf(t, cl.c, req.ID)
	}
	info, err := cl.c.GetSession(busy)
	if err != nil {
		t.Fatal(err)
	}
	dims := make([]string, len(info.Dims))
	for i := range dims {
		dims[i] = "slow"
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		acked    []server.AppendRequest
		unacked  int
	)
	stop := make(chan struct{})
	fail := func(op string, err error) {
		m := statusInErr.FindStringSubmatch(err.Error())
		status := 0
		if m != nil {
			status, _ = strconv.Atoi(m[1])
		}
		mu.Lock()
		defer mu.Unlock()
		if !documented[status] {
			failures = append(failures, fmt.Sprintf("%s: %v", op, err))
		}
		if op == "append" {
			unacked++
		}
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
				id := reqs[(w+i)%len(reqs)].ID
				if _, err := cl.c.Mine(id, server.MineRequest{K: 2 + i%3, SampleSize: 16, Seed: int64(i % 5)}); err != nil {
					fail("mine "+id, err)
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
			req := server.AppendRequest{Rows: []server.RowJSON{{Dims: dims, Measure: float64(i%9 + 1)}}}
			if _, err := cl.c.AppendRows(busy, req); err != nil {
				fail("append", err)
				continue
			}
			mu.Lock()
			acked = append(acked, req)
			mu.Unlock()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	moved := 0
	for _, sh := range cl.shards {
		resp := migrate(t, cl, sh)
		moved += len(resp.Moved)
		for _, f := range resp.Failed {
			failures = append(failures, fmt.Sprintf("migrating %s off %s: %s", f.ID, sh.conf.ShardID, f.Error))
		}
		if err := cl.c.Do("POST", "/v1/shards/"+sh.conf.ShardID+"/undrain", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	t.Logf("%d sessions moved in %d drain passes, %d appends acknowledged, %d ops failed outside the documented statuses",
		moved, len(cl.shards), len(acked), len(failures))
	for _, f := range failures {
		t.Error(f)
	}
	for _, req := range reqs {
		if req.ID == busy {
			continue
		}
		if got := stateOf(t, cl.c, req.ID); got != before[req.ID] {
			t.Errorf("session %s moved from %+v to %+v", req.ID, before[req.ID], got)
		}
	}
	if unacked > 0 {
		t.Logf("%d appends failed with a documented status; the appended session is not compared", unacked)
		return
	}
	got := stateOf(t, cl.c, busy)
	if want := before[busy].epoch + int64(len(acked)); got.epoch != want || got.rows != before[busy].rows+len(acked) {
		t.Fatalf("%s after %d acknowledged appends: rows %d epoch %d, want rows %d epoch %d",
			busy, len(acked), got.rows, got.epoch, before[busy].rows+len(acked), want)
	}
	single := server.New(server.Config{})
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	sc := &server.Client{BaseURL: sts.URL, HTTP: &http.Client{Timeout: time.Minute}}
	for _, req := range reqs {
		if req.ID == busy {
			if _, err := sc.CreateSession(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, req := range acked {
		if _, err := sc.AppendRows(busy, req); err != nil {
			t.Fatal(err)
		}
	}
	if want := stateOf(t, sc, busy); got != want {
		t.Fatalf("%s after the drain passes answers %+v; a single daemon with the same appends answers %+v", busy, got, want)
	}
}
