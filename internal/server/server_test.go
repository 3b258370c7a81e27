package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sirum"
)

// testServer starts an httptest server over a fresh daemon.
func testServer(t *testing.T, conf Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(conf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// call does one JSON round trip and decodes the response into out (skipped
// when out is nil), returning the status code.
func call(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var body *bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(buf)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// sameMineResult compares two responses to the same mining query under the
// library's equality contract: identical rule lists and counts, aggregates
// within floating-point summation-order tolerance.
func sameMineResult(got, want *MineResponse) error {
	if len(got.Rules) != len(want.Rules) {
		return fmt.Errorf("rule counts differ: %d vs %d", len(got.Rules), len(want.Rules))
	}
	for j := range got.Rules {
		g, w := got.Rules[j], want.Rules[j]
		if g.Display != w.Display || g.Count != w.Count {
			return fmt.Errorf("rule %d: %s (%d) vs %s (%d)", j, g.Display, g.Count, w.Display, w.Count)
		}
		if !reflect.DeepEqual(g.Conditions, w.Conditions) {
			return fmt.Errorf("rule %d conditions differ", j)
		}
		if relErr(g.Avg, w.Avg) > 1e-9 || relErr(g.Gain, w.Gain) > 1e-6 {
			return fmt.Errorf("rule %d aggregates differ: avg %v vs %v, gain %v vs %v", j, g.Avg, w.Avg, g.Gain, w.Gain)
		}
	}
	if relErr(got.KL, want.KL) > 1e-6 || relErr(got.InfoGain, want.InfoGain) > 1e-6 {
		return fmt.Errorf("kl/info gain differ: %v/%v vs %v/%v", got.KL, got.InfoGain, want.KL, want.InfoGain)
	}
	return nil
}

func relErr(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	} else if -b > m {
		m = -b
	}
	if m == 0 {
		return d
	}
	return d / m
}

func createIncome(t *testing.T, baseURL, id string, rows int) SessionInfo {
	t.Helper()
	var info SessionInfo
	status := call(t, "POST", baseURL+"/v1/datasets", CreateRequest{
		ID:        id,
		Generator: &GeneratorSpec{Name: "income", Rows: rows, Seed: 3},
		Prepare:   PrepareSpec{SampleSize: 16, Seed: 2},
	}, &info)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	return info
}

// TestServerConcurrentMineExplore is the serving-path acceptance test (run
// under -race in CI): ≥8 concurrent mixed mine/explore queries against one
// prepared session must all succeed, every mine must match the
// single-client baseline exactly, and every response must carry its own
// per-query metrics snapshot. The result cache is disabled so every query
// does real concurrent backend work (TestServerConcurrentCacheStorm covers
// the cached path).
func TestServerConcurrentMineExplore(t *testing.T) {
	_, ts := testServer(t, Config{MaxInFlight: 4, CacheEntries: -1})
	info := createIncome(t, ts.URL, "inc", 1500)
	if info.Rows != 1500 {
		t.Fatalf("created session has %d rows", info.Rows)
	}
	mineURL := ts.URL + "/v1/datasets/inc/mine"
	mineReq := MineRequest{K: 3, SampleSize: 16, Seed: 2}

	var baseline MineResponse
	if status := call(t, "POST", mineURL, mineReq, &baseline); status != http.StatusOK {
		t.Fatalf("baseline mine: status %d", status)
	}
	if len(baseline.Rules) == 0 {
		t.Fatal("baseline mined no rules")
	}

	const workers = 12 // > MaxInFlight, so some queries queue
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%3 == 2 {
				var resp ExploreResponse
				if status := call(t, "POST", ts.URL+"/v1/datasets/inc/explore",
					ExploreRequest{K: 2, GroupBys: 1, Seed: 2}, &resp); status != http.StatusOK {
					errs[g] = fmt.Errorf("explore status %d", status)
					return
				}
				if len(resp.Rules) == 0 {
					errs[g] = fmt.Errorf("explore returned no rules")
				}
				return
			}
			var resp MineResponse
			if status := call(t, "POST", mineURL, mineReq, &resp); status != http.StatusOK {
				errs[g] = fmt.Errorf("mine status %d", status)
				return
			}
			if err := sameMineResult(&resp, &baseline); err != nil {
				errs[g] = fmt.Errorf("concurrent mine diverged from baseline: %w", err)
				return
			}
			if len(resp.Metrics.Counters) == 0 || resp.Metrics.Counters["candidates"] == 0 {
				errs[g] = fmt.Errorf("response missing per-query metrics: %+v", resp.Metrics)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", g, err)
		}
	}

	var health HealthResponse
	if status := call(t, "GET", ts.URL+"/v1/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if health.Queries < workers+1 {
		t.Errorf("health reports %d queries, want >= %d", health.Queries, workers+1)
	}
	if health.Sessions != 1 {
		t.Errorf("health reports %d sessions, want 1", health.Sessions)
	}
}

// TestServerSessionLifecycle covers create/list/get/delete plus id conflicts.
func TestServerSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "a", 1200)

	// Duplicate ids conflict.
	if status := call(t, "POST", ts.URL+"/v1/datasets", CreateRequest{
		ID:        "a",
		Generator: &GeneratorSpec{Name: "income", Rows: 1200},
	}, nil); status != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", status)
	}

	// Auto-assigned ids.
	var auto SessionInfo
	if status := call(t, "POST", ts.URL+"/v1/datasets", CreateRequest{
		Generator: &GeneratorSpec{Name: "flights"},
	}, &auto); status != http.StatusCreated {
		t.Fatalf("auto-id create: status %d", status)
	}
	if auto.ID == "" || auto.ID == "a" {
		t.Errorf("auto-assigned id = %q", auto.ID)
	}

	var list ListResponse
	if status := call(t, "GET", ts.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(list.Sessions) != 2 {
		t.Errorf("list has %d sessions, want 2", len(list.Sessions))
	}

	// Get includes lifetime stats.
	var got SessionInfo
	if status := call(t, "GET", ts.URL+"/v1/datasets/a", nil, &got); status != http.StatusOK {
		t.Fatalf("get: status %d", status)
	}
	if got.Stats == nil || got.Stats.Backend != "native" {
		t.Errorf("get returned no usable stats: %+v", got.Stats)
	}

	if status := call(t, "DELETE", ts.URL+"/v1/datasets/a", nil, nil); status != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", status)
	}
	if status := call(t, "GET", ts.URL+"/v1/datasets/a", nil, nil); status != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", status)
	}
	if status := call(t, "DELETE", ts.URL+"/v1/datasets/a", nil, nil); status != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", status)
	}
}

// TestServerErrorMapping pins the JSON error contract: caller mistakes are
// 4xx with a machine-readable body, never 5xx or panics.
func TestServerErrorMapping(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "d", 1200)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown dataset", "POST", "/v1/datasets/nope/mine", MineRequest{K: 2}, http.StatusNotFound},
		{"bad variant", "POST", "/v1/datasets/d/mine", MineRequest{K: 2, Variant: "nope"}, http.StatusBadRequest},
		{"foreign backend create", "POST", "/v1/datasets", CreateRequest{
			Generator: &GeneratorSpec{Name: "flights"}, Prepare: PrepareSpec{Backend: "spark"},
		}, http.StatusBadRequest},
		{"unknown generator", "POST", "/v1/datasets", CreateRequest{
			Generator: &GeneratorSpec{Name: "nope"},
		}, http.StatusBadRequest},
		{"path-unsafe session id", "POST", "/v1/datasets", CreateRequest{
			ID: "../evil", Generator: &GeneratorSpec{Name: "flights"},
		}, http.StatusBadRequest},
		{"csv without measure", "POST", "/v1/datasets", CreateRequest{CSV: "a,m\nx,1\n"}, http.StatusBadRequest},
		{"empty create", "POST", "/v1/datasets", CreateRequest{}, http.StatusBadRequest},
		{"append without rows", "POST", "/v1/datasets/d/append", AppendRequest{}, http.StatusBadRequest},
		{"append ragged row", "POST", "/v1/datasets/d/append", AppendRequest{
			Rows: []RowJSON{{Dims: []string{"just-one"}, Measure: 1}},
		}, http.StatusBadRequest},
		// pool_limit was retired: a create carrying it is an unknown field.
		{"retired pool_limit", "POST", "/v1/datasets", json.RawMessage(
			`{"generator":{"name":"flights"},"prepare":{"pool_limit":4}}`,
		), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(mustJSON(t, tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var apiErr ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
				t.Errorf("error body missing: decode err %v, body %+v", err, apiErr)
			}
		})
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/datasets/d/mine", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestServerRejectsOversizedBody pins the request-body cap: a payload over
// MaxBodyBytes is refused before it is materialized.
func TestServerRejectsOversizedBody(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 256})
	big := `{"id":"x","csv":"` + strings.Repeat("a", 1024) + `","measure":"m"}`
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestServerCSVAndAppend drives a CSV-born session through append: the
// session grows and later queries see the new rows.
func TestServerCSVAndAppend(t *testing.T) {
	_, ts := testServer(t, Config{})
	var sb strings.Builder
	sb.WriteString("Day,City,Delay\n")
	days := []string{"Mon", "Tue"}
	cities := []string{"NY", "LA", "SF"}
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&sb, "%s,%s,%d\n", days[i%2], cities[i%3], 10+i%7)
	}
	var info SessionInfo
	if status := call(t, "POST", ts.URL+"/v1/datasets", CreateRequest{
		ID:      "csv",
		CSV:     sb.String(),
		Measure: "Delay",
	}, &info); status != http.StatusCreated {
		t.Fatalf("csv create: status %d", status)
	}
	if info.Rows != 24 || len(info.Dims) != 2 {
		t.Fatalf("csv session: %d rows, dims %v", info.Rows, info.Dims)
	}

	var app AppendResponse
	if status := call(t, "POST", ts.URL+"/v1/datasets/csv/append", AppendRequest{
		Rows: []RowJSON{
			{Dims: []string{"Wed", "NY"}, Measure: 55},
			{Dims: []string{"Wed", "LA"}, Measure: 60},
		},
		MineRequest: MineRequest{K: 2},
	}, &app); status != http.StatusOK {
		t.Fatalf("append: status %d", status)
	}
	if app.Rows != 26 {
		t.Errorf("append rows = %d, want 26", app.Rows)
	}
	if !app.Remined {
		t.Error("first append should have mined the rule list")
	}

	var after SessionInfo
	call(t, "GET", ts.URL+"/v1/datasets/csv", nil, &after)
	if after.Rows != 26 {
		t.Errorf("session rows after append = %d, want 26", after.Rows)
	}
}

// TestServerConcurrentAdmissionQueueing pins the admission semaphore: with
// one execution slot, a burst of concurrent queries all succeed (they
// queue), and the health counters account for every one of them.
func TestServerConcurrentAdmissionQueueing(t *testing.T) {
	s, ts := testServer(t, Config{MaxInFlight: 1, CacheEntries: -1})
	createIncome(t, ts.URL, "q", 1200)
	const burst = 6
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resp MineResponse
			if status := call(t, "POST", ts.URL+"/v1/datasets/q/mine",
				MineRequest{K: 2, SampleSize: 16, Seed: 2}, &resp); status != http.StatusOK {
				errs[g] = fmt.Errorf("status %d", status)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("queued query %d: %v", g, err)
		}
	}
	// The session create is admitted through the same semaphore as the
	// mines — preparation is heavy work too.
	if got := s.queries.Load(); got != burst+1 {
		t.Errorf("admitted %d units of work, want %d", got, burst+1)
	}
}

// TestServerCloseRejectsNewWork pins shutdown semantics: after Close every
// endpoint that would start work answers 503, sessions are gone, and Close
// is idempotent.
func TestServerCloseRejectsNewWork(t *testing.T) {
	s, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "z", 1200)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if status := call(t, "POST", ts.URL+"/v1/datasets", CreateRequest{
		Generator: &GeneratorSpec{Name: "flights"},
	}, nil); status != http.StatusServiceUnavailable {
		t.Errorf("create after close: status %d, want 503", status)
	}
	// The registry was emptied, so the session is simply gone.
	if status := call(t, "POST", ts.URL+"/v1/datasets/z/mine", MineRequest{K: 2}, nil); status != http.StatusNotFound {
		t.Errorf("mine after close: status %d, want 404", status)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// clearCached strips the cache marker so responses can be compared for
// deep equality against the originally computed answer.
func clearCached(r MineResponse) MineResponse {
	r.Cached = false
	return r
}

// lifetimeCounters fetches a session's lifetime operator counters.
func lifetimeCounters(t *testing.T, baseURL, id string) map[string]int64 {
	t.Helper()
	var info SessionInfo
	if status := call(t, "GET", baseURL+"/v1/datasets/"+id, nil, &info); status != http.StatusOK {
		t.Fatalf("get %s: status %d", id, status)
	}
	if info.Stats == nil {
		t.Fatalf("get %s returned no stats", id)
	}
	return info.Stats.Lifetime.Counters
}

// TestServerResultCacheRepeatAndEpoch pins the cache contract: an
// identical repeat query is served from the cache with a deep-equal
// result and no backend work, and an Append bumps the epoch so the next
// identical query recomputes.
func TestServerResultCacheRepeatAndEpoch(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "c", 1500)
	mineURL := ts.URL + "/v1/datasets/c/mine"
	mineReq := MineRequest{K: 3, SampleSize: 16, Seed: 2}

	var cold MineResponse
	if status := call(t, "POST", mineURL, mineReq, &cold); status != http.StatusOK {
		t.Fatalf("cold mine: status %d", status)
	}
	if cold.Cached {
		t.Fatal("first mine claims to be cached")
	}
	before := lifetimeCounters(t, ts.URL, "c")

	var hit MineResponse
	if status := call(t, "POST", mineURL, mineReq, &hit); status != http.StatusOK {
		t.Fatalf("repeat mine: status %d", status)
	}
	if !hit.Cached {
		t.Fatal("identical repeat mine was not served from the cache")
	}
	if !reflect.DeepEqual(clearCached(hit), clearCached(cold)) {
		t.Errorf("cached response is not deep-equal to the computed one:\n%+v\nvs\n%+v", hit, cold)
	}
	// Normalization: a request that spells out the defaults the first one
	// left implicit is the same canonical query, so it hits too.
	var normalized MineResponse
	if status := call(t, "POST", mineURL, MineRequest{K: 3, SampleSize: 16, Seed: 2, Variant: "optimized", Epsilon: 0.01}, &normalized); status != http.StatusOK {
		t.Fatalf("normalized mine: status %d", status)
	}
	if !normalized.Cached {
		t.Error("defaults-spelled-out request missed the cache: canonicalization broken")
	}
	// No backend work happened for the hits: operator lifetime counters
	// are unchanged.
	if after := lifetimeCounters(t, ts.URL, "c"); !reflect.DeepEqual(before, after) {
		t.Errorf("cached queries did backend work: counters %v -> %v", before, after)
	}
	// A different K is a different canonical query.
	var other MineResponse
	if status := call(t, "POST", mineURL, MineRequest{K: 2, SampleSize: 16, Seed: 2}, &other); status != http.StatusOK {
		t.Fatalf("different-k mine: status %d", status)
	}
	if other.Cached {
		t.Error("different K was served from the cache")
	}

	// Explore caches too.
	exploreURL := ts.URL + "/v1/datasets/c/explore"
	exploreReq := ExploreRequest{K: 2, GroupBys: 1, Seed: 2}
	var ex1, ex2 ExploreResponse
	if status := call(t, "POST", exploreURL, exploreReq, &ex1); status != http.StatusOK {
		t.Fatalf("explore: status %d", status)
	}
	if status := call(t, "POST", exploreURL, exploreReq, &ex2); status != http.StatusOK {
		t.Fatalf("repeat explore: status %d", status)
	}
	if ex1.Cached || !ex2.Cached {
		t.Errorf("explore caching: first cached=%v, repeat cached=%v", ex1.Cached, ex2.Cached)
	}

	// Append bumps the epoch: the same mine request must recompute.
	var app AppendResponse
	if status := call(t, "POST", ts.URL+"/v1/datasets/c/append", AppendRequest{
		Rows:        []RowJSON{{Dims: incomeDims(t, ts.URL, "c"), Measure: 1}},
		MineRequest: MineRequest{K: 2},
	}, &app); status != http.StatusOK {
		t.Fatalf("append: status %d", status)
	}
	var postAppend MineResponse
	if status := call(t, "POST", mineURL, mineReq, &postAppend); status != http.StatusOK {
		t.Fatalf("post-append mine: status %d", status)
	}
	if postAppend.Cached {
		t.Error("append did not invalidate the cache: stale epoch served")
	}
	var postAppendRepeat MineResponse
	if status := call(t, "POST", mineURL, mineReq, &postAppendRepeat); status != http.StatusOK {
		t.Fatalf("post-append repeat: status %d", status)
	}
	if !postAppendRepeat.Cached {
		t.Error("new epoch's result was not cached")
	}

	var health HealthResponse
	if status := call(t, "GET", ts.URL+"/v1/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.CacheHits < 4 || health.CacheMisses < 3 {
		t.Errorf("health cache counters implausible: hits %d misses %d", health.CacheHits, health.CacheMisses)
	}
}

// incomeDims fetches a session's dim names and fabricates one valid row
// value per dimension (values already in the dataset's dictionaries are
// not required — appends re-encode).
func incomeDims(t *testing.T, baseURL, id string) []string {
	t.Helper()
	var info SessionInfo
	if status := call(t, "GET", baseURL+"/v1/datasets/"+id, nil, &info); status != http.StatusOK {
		t.Fatalf("get %s: status %d", id, status)
	}
	dims := make([]string, len(info.Dims))
	for i := range dims {
		dims[i] = "appended-value"
	}
	return dims
}

// TestServerCacheSharingAndDivergentAppends pins the cross-session cache
// contract: sessions prepared identically over the same source share
// entries while their data histories match, and stop sharing the moment
// their appends diverge — the key carries the content chain, not a bare
// append counter, so same-epoch sessions with different data can never
// serve each other's results.
func TestServerCacheSharingAndDivergentAppends(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "a", 1200)
	createIncome(t, ts.URL, "b", 1200)
	mineReq := MineRequest{K: 3, SampleSize: 16, Seed: 2}

	var onA MineResponse
	if status := call(t, "POST", ts.URL+"/v1/datasets/a/mine", mineReq, &onA); status != http.StatusOK {
		t.Fatalf("mine a: status %d", status)
	}
	if onA.Cached {
		t.Fatal("first mine claims to be cached")
	}
	// Identical source + prep + query: b legitimately shares a's entry.
	var onB MineResponse
	if status := call(t, "POST", ts.URL+"/v1/datasets/b/mine", mineReq, &onB); status != http.StatusOK {
		t.Fatalf("mine b: status %d", status)
	}
	if !onB.Cached {
		t.Error("identical sessions did not share the cache entry")
	}

	// Divergent appends: both sessions reach epoch 1 with different data.
	appendRow := func(id, value string, measure float64) {
		t.Helper()
		dims := incomeDims(t, ts.URL, id)
		for i := range dims {
			dims[i] = value
		}
		if status := call(t, "POST", ts.URL+"/v1/datasets/"+id+"/append", AppendRequest{
			Rows:        []RowJSON{{Dims: dims, Measure: measure}},
			MineRequest: MineRequest{K: 2},
		}, nil); status != http.StatusOK {
			t.Fatalf("append %s: status %d", id, status)
		}
	}
	appendRow("a", "row-for-a", 1)
	appendRow("b", "row-for-b", 0)

	var postA MineResponse
	if status := call(t, "POST", ts.URL+"/v1/datasets/a/mine", mineReq, &postA); status != http.StatusOK {
		t.Fatalf("post-append mine a: status %d", status)
	}
	if postA.Cached {
		t.Fatal("append did not invalidate a's cache")
	}
	var postB MineResponse
	if status := call(t, "POST", ts.URL+"/v1/datasets/b/mine", mineReq, &postB); status != http.StatusOK {
		t.Fatalf("post-append mine b: status %d", status)
	}
	if postB.Cached {
		t.Error("same-epoch sessions with different appended data shared a cache entry")
	}
}

// TestSnapshotterToleratesTornTail pins crash recovery of the append
// journal: a truncated final record (the crash-interrupted write of an
// unacknowledged append) is dropped, while corruption before the end of
// the journal still fails loudly.
func TestSnapshotterToleratesTornTail(t *testing.T) {
	sn, err := newSnapshotter(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	good := appendRecord{Rows: []RowJSON{{Dims: []string{"x"}, Measure: 1}}, Mine: MineRequest{K: 2}}
	if err := sn.appendBatch("s", good); err != nil {
		t.Fatal(err)
	}
	if err := sn.appendBatch("s", good); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write of a third record.
	f, err := os.OpenFile(sn.appendsPath("s"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rows":[{"dims":["x"],"meas`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := sn.loadAppends("s")
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("loaded %d records, want the 2 durable ones", len(recs))
	}
	// Recovery must truncate the fragment: an append journaled after the
	// restore is durable, not merged onto the torn line.
	if err := sn.appendBatch("s", good); err != nil {
		t.Fatal(err)
	}
	recs, err = sn.loadAppends("s")
	if err != nil {
		t.Fatalf("journal corrupt after post-recovery append: %v", err)
	}
	if len(recs) != 3 {
		t.Errorf("loaded %d records after post-recovery append, want 3", len(recs))
	}

	// Corruption in the middle must fail, not be silently skipped.
	if err := os.WriteFile(sn.appendsPath("mid"), []byte("{garbage\n"+`{"rows":[],"mine":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.loadAppends("mid"); err == nil {
		t.Error("mid-journal corruption loaded without error")
	}
}

// TestServerCacheRepeatLatency is the repeat-query acceptance benchmark
// through the HTTP path: the second identical mine is served from the
// cache at least 10x faster than the cold query, with the operator's
// lifetime metrics unchanged (no backend work).
func TestServerCacheRepeatLatency(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "lat", 2000)
	mineURL := ts.URL + "/v1/datasets/lat/mine"
	mineReq := MineRequest{K: 3, SampleSize: 16, Seed: 2}

	coldStart := time.Now()
	var cold MineResponse
	if status := call(t, "POST", mineURL, mineReq, &cold); status != http.StatusOK {
		t.Fatalf("cold mine: status %d", status)
	}
	coldLatency := time.Since(coldStart)
	if cold.Cached {
		t.Fatal("cold mine claims to be cached")
	}
	before := lifetimeCounters(t, ts.URL, "lat")

	// Best of three, so one scheduling hiccup cannot fail the 10x bound.
	cachedLatency := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		var hit MineResponse
		if status := call(t, "POST", mineURL, mineReq, &hit); status != http.StatusOK {
			t.Fatalf("cached mine %d: status %d", i, status)
		}
		if !hit.Cached {
			t.Fatalf("repeat mine %d missed the cache", i)
		}
		if d := time.Since(start); d < cachedLatency {
			cachedLatency = d
		}
	}
	if after := lifetimeCounters(t, ts.URL, "lat"); !reflect.DeepEqual(before, after) {
		t.Errorf("cached mines did backend work: counters %v -> %v", before, after)
	}
	if cachedLatency*10 > coldLatency {
		t.Errorf("cached mine not >=10x faster: cold %v, cached %v", coldLatency, cachedLatency)
	}
	t.Logf("cold %v, cached %v (%.0fx)", coldLatency, cachedLatency, float64(coldLatency)/float64(cachedLatency))
}

// TestServerConcurrentCacheStorm hammers one session with a hit/miss mix
// under -race: several distinct canonical queries land concurrently (each
// computed once, then served from cache) while an append bumps the epoch
// mid-storm. Every response must be internally consistent — same-spec
// responses at the same epoch are deep-equal.
func TestServerConcurrentCacheStorm(t *testing.T) {
	_, ts := testServer(t, Config{MaxInFlight: 2})
	createIncome(t, ts.URL, "storm", 1500)
	mineURL := ts.URL + "/v1/datasets/storm/mine"

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == workers/2 {
				// One append races the storm: it must not corrupt any
				// response, only split the storm across two epochs.
				if status := call(t, "POST", ts.URL+"/v1/datasets/storm/append", AppendRequest{
					Rows:        []RowJSON{{Dims: incomeDims(t, ts.URL, "storm"), Measure: 2}},
					MineRequest: MineRequest{K: 2},
				}, nil); status != http.StatusOK {
					errs[g] = fmt.Errorf("append status %d", status)
				}
				return
			}
			req := MineRequest{K: 2 + g%3, SampleSize: 16, Seed: 2}
			for rep := 0; rep < 3; rep++ {
				var resp MineResponse
				if status := call(t, "POST", mineURL, req, &resp); status != http.StatusOK {
					errs[g] = fmt.Errorf("mine status %d", status)
					return
				}
				if len(resp.Rules) == 0 {
					errs[g] = fmt.Errorf("mine returned no rules")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", g, err)
		}
	}
	var health HealthResponse
	if status := call(t, "GET", ts.URL+"/v1/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.CacheHits == 0 {
		t.Error("storm produced no cache hits")
	}
}

// TestServerSnapshotRestart is the persistence acceptance test: sessions
// created from a generator and from CSV (with an appended batch) survive a
// server restart via the snapshot directory, serving the same session list
// and baseline-consistent mine answers; deleted sessions stay gone.
func TestServerSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{SnapshotDir: dir})
	ts1 := httptest.NewServer(s1.Handler())

	createIncome(t, ts1.URL, "gen", 1500)
	var sb strings.Builder
	sb.WriteString("Day,City,Delay\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&sb, "%s,%s,%d\n", []string{"Mon", "Tue"}[i%2], []string{"NY", "LA", "SF"}[i%3], 10+i%7)
	}
	if status := call(t, "POST", ts1.URL+"/v1/datasets", CreateRequest{
		ID: "csv", CSV: sb.String(), Measure: "Delay",
	}, nil); status != http.StatusCreated {
		t.Fatalf("csv create: status %d", status)
	}
	if status := call(t, "POST", ts1.URL+"/v1/datasets/csv/append", AppendRequest{
		Rows: []RowJSON{
			{Dims: []string{"Wed", "NY"}, Measure: 55},
			{Dims: []string{"Wed", "LA"}, Measure: 60},
		},
		MineRequest: MineRequest{K: 2},
	}, nil); status != http.StatusOK {
		t.Fatalf("append: status %d", status)
	}
	// A session deleted before the restart must not come back.
	createIncome(t, ts1.URL, "doomed", 1200)
	if status := call(t, "DELETE", ts1.URL+"/v1/datasets/doomed", nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}

	mineReq := MineRequest{K: 3, SampleSize: 16, Seed: 2}
	baselines := map[string]MineResponse{}
	for _, id := range []string{"gen", "csv"} {
		var resp MineResponse
		if status := call(t, "POST", ts1.URL+"/v1/datasets/"+id+"/mine", mineReq, &resp); status != http.StatusOK {
			t.Fatalf("baseline mine %s: status %d", id, status)
		}
		baselines[id] = resp
	}

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// A manifest journaled before pool_limit was retired still restores.
	addRetiredPrepareField(t, filepath.Join(dir, "gen.session.json"))

	s2 := New(Config{SnapshotDir: dir})
	n, err := s2.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 2 {
		t.Fatalf("restored %d sessions, want 2", n)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})

	var list ListResponse
	if status := call(t, "GET", ts2.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("restored list has %d sessions, want 2", len(list.Sessions))
	}
	for _, info := range list.Sessions {
		if info.ID == "doomed" {
			t.Error("deleted session came back from the snapshot")
		}
	}

	// The CSV session replayed its append: 26 rows, epoch 1, and the same
	// answers as before the restart.
	var csvInfo SessionInfo
	if status := call(t, "GET", ts2.URL+"/v1/datasets/csv", nil, &csvInfo); status != http.StatusOK {
		t.Fatalf("get csv: status %d", status)
	}
	if csvInfo.Rows != 26 {
		t.Errorf("restored csv session has %d rows, want 26", csvInfo.Rows)
	}
	if csvInfo.Stats == nil || csvInfo.Stats.Epoch != 1 {
		t.Errorf("restored csv session stats = %+v, want epoch 1", csvInfo.Stats)
	}
	for id, want := range baselines {
		var got MineResponse
		if status := call(t, "POST", ts2.URL+"/v1/datasets/"+id+"/mine", mineReq, &got); status != http.StatusOK {
			t.Fatalf("restored mine %s: status %d", id, status)
		}
		if err := sameMineResult(&got, &want); err != nil {
			t.Errorf("session %q diverged after restart: %v", id, err)
		}
	}

	// A new auto-id create must not collide with restored sessions.
	var auto SessionInfo
	if status := call(t, "POST", ts2.URL+"/v1/datasets", CreateRequest{
		Generator: &GeneratorSpec{Name: "flights"},
	}, &auto); status != http.StatusCreated {
		t.Fatalf("post-restore create: status %d", status)
	}
	if auto.ID == "gen" || auto.ID == "csv" {
		t.Errorf("auto id collided with restored session: %q", auto.ID)
	}
}

// addRetiredPrepareField rewrites a session manifest so that its prepare
// options carry the retired "pool_limit" field, as manifests journaled by
// older servers do.
func addRetiredPrepareField(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	prep, ok := m["prepare"].(map[string]any)
	if !ok {
		t.Fatalf("manifest %s has no prepare object: %s", path, buf)
	}
	prep["pool_limit"] = 4
	if err := os.WriteFile(path, mustJSON(t, m), 0o644); err != nil {
		t.Fatal(err)
	}
}

// incomeBatches cuts n append batches of the given size out of an income
// draw no session was created from.
func incomeBatches(t *testing.T, n, size int) [][]RowJSON {
	t.Helper()
	ds, err := sirum.Generate("income", n*size, 91)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")[1:] // drop the header
	out := make([][]RowJSON, n)
	for i, line := range lines {
		fields := strings.Split(line, ",")
		var m float64
		if _, err := fmt.Sscan(fields[len(fields)-1], &m); err != nil {
			t.Fatal(err)
		}
		out[i/size] = append(out[i/size], RowJSON{Dims: fields[:len(fields)-1], Measure: m})
	}
	return out
}

// TestServerAppendIdenticalLiveAndRestored pins what a deterministic scaler
// buys the serving path: an append answers the same — the re-mine decision,
// the KL to the last bit, the maintained rules — on a session that lived
// through its history and on one rebuilt from the journal of that history.
func TestServerAppendIdenticalLiveAndRestored(t *testing.T) {
	batches := incomeBatches(t, 4, 60)
	appendTo := func(url string, batch []RowJSON) AppendResponse {
		t.Helper()
		var resp AppendResponse
		if status := call(t, "POST", url+"/v1/datasets/s/append", AppendRequest{
			Rows:        batch,
			MineRequest: MineRequest{K: 8, SampleSize: 16, Seed: 2},
		}, &resp); status != http.StatusOK {
			t.Fatalf("append: status %d", status)
		}
		return resp
	}

	_, live := testServer(t, Config{})
	createIncome(t, live.URL, "s", 3000)
	var want AppendResponse
	for _, batch := range batches {
		want = appendTo(live.URL, batch)
	}

	dir := t.TempDir()
	s1 := New(Config{SnapshotDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	createIncome(t, ts1.URL, "s", 3000)
	for _, batch := range batches[:3] {
		appendTo(ts1.URL, batch)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{SnapshotDir: dir})
	if n, err := s2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: %d sessions, %v", n, err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	got := appendTo(ts2.URL, batches[3])

	if got.Remined != want.Remined || got.Rows != want.Rows || got.KL != want.KL {
		t.Errorf("restored session: remined %v rows %d KL %v; live session: remined %v rows %d KL %v",
			got.Remined, got.Rows, got.KL, want.Remined, want.Rows, want.KL)
	}
	if !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Errorf("maintained rules differ:\nrestored %+v\nlive     %+v", got.Rules, want.Rules)
	}
}

// TestServerMetricsEndpoint pins the Prometheus-style text format:
// admission and cache counters plus per-session lifetime stats.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "met", 1200)
	mineReq := MineRequest{K: 2, SampleSize: 16, Seed: 2}
	for i := 0; i < 2; i++ { // one miss, one hit
		if status := call(t, "POST", ts.URL+"/v1/datasets/met/mine", mineReq, nil); status != http.StatusOK {
			t.Fatalf("mine %d: status %d", i, status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(buf)
	for _, want := range []string{
		"sirumd_sessions 1",
		"sirumd_result_cache_hits_total 1",
		"sirumd_result_cache_misses_total 1",
		"sirumd_queries_total",
		"sirumd_rejected_total 0",
		`sirumd_session_queries_total{session="met"} 2`,
		`sirumd_session_rows{session="met"} 1200`,
		`sirumd_session_epoch{session="met"} 0`,
		`sirumd_session_lifetime_total{session="met",counter=`,
		`sirumd_session_phase_seconds_total{session="met",phase=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestMineResponseSerializesMetrics pins the wire format of the per-query
// metrics snapshot (counters + nanosecond phase maps).
func TestMineResponseSerializesMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	createIncome(t, ts.URL, "m", 1200)
	resp, err := http.Post(ts.URL+"/v1/datasets/m/mine", "application/json",
		strings.NewReader(`{"k":2,"sample_size":16,"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var met struct {
		Counters map[string]int64 `json:"counters"`
		Phases   map[string]int64 `json:"phases_ns"`
	}
	if err := json.Unmarshal(raw["metrics"], &met); err != nil {
		t.Fatalf("metrics not serializable: %v", err)
	}
	if met.Counters["candidates"] == 0 {
		t.Errorf("metrics counters missing candidates: %+v", met.Counters)
	}
	if len(met.Phases) == 0 {
		t.Error("metrics phases empty")
	}
	var _ = sirum.QueryMetrics{} // the wire type round-trips through the public snapshot
}
