package router

// The relay's contract, pinned: what a client sees through the router is
// what the shard said — byte for byte on success, in the daemon's own error
// shape on failure — and a shard that cuts a response short is a shard
// failure (marked down, 502), never a truncated answer.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sirum/internal/server"
)

// get issues one GET and returns status, content type and body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading GET %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestExportThroughRouter pins GET /v1/datasets/{id}/export through the
// router: the shard's document byte for byte, 404 for an unknown id, 503
// while the home shard is marked down.
func TestExportThroughRouter(t *testing.T) {
	cl := newCluster(t, 2, false)
	for _, req := range refSessions() {
		if _, err := cl.c.CreateSession(req); err != nil {
			t.Fatalf("creating %s: %v", req.ID, err)
		}
	}
	row := appendRow(t, cl.c, "csv", 5)
	if _, err := cl.c.AppendRows("csv", server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
		t.Fatal(err)
	}
	for _, req := range refSessions() {
		home := cl.holder(t, req.ID)
		wantStatus, wantType, want := get(t, home.base+"/v1/datasets/"+req.ID+"/export")
		status, ctype, got := get(t, cl.ts.URL+"/v1/datasets/"+req.ID+"/export")
		if status != wantStatus || ctype != wantType || !bytes.Equal(got, want) {
			t.Fatalf("export %s through the router: %d %q %q, shard said %d %q %q",
				req.ID, status, ctype, got, wantStatus, wantType, want)
		}
	}

	if status, _, body := get(t, cl.ts.URL+"/v1/datasets/nope/export"); status != http.StatusNotFound {
		t.Errorf("export of an unknown id: %d %s, want 404", status, body)
	}
	home := cl.holder(t, "csv")
	for _, sh := range cl.rt.shards {
		if sh.base == home.base {
			cl.rt.markDown(sh, fmt.Errorf("marked down by the test"))
		}
	}
	if status, _, body := get(t, cl.ts.URL+"/v1/datasets/csv/export"); status != http.StatusServiceUnavailable {
		t.Errorf("export with the home shard down: %d %s, want 503", status, body)
	}
}

// TestSessionRoutesKeepTheMuxAnswers pins the statuses the router's mux
// gives to a method a session path does not serve.
func TestSessionRoutesKeepTheMuxAnswers(t *testing.T) {
	cl := newCluster(t, 1, false)
	if _, err := cl.c.CreateSession(server.CreateRequest{ID: "m", CSV: testCSV, Measure: "Delay"}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/datasets/m/mine", "/v1/datasets/m/explore", "/v1/datasets/m/append"} {
		if status, _, body := get(t, cl.ts.URL+path); status != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: %d %s, want 405", path, status, body)
		}
	}
	resp, err := http.Post(cl.ts.URL+"/v1/datasets/m/export", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/datasets/m/export: %d, want 404", resp.StatusCode)
	}
}

// TestRouterErrorsHaveTheDaemonsShape holds router-made errors to the
// daemon's error surface: same Content-Type, same {"error":…} body, byte
// for byte where both say the same thing.
func TestRouterErrorsHaveTheDaemonsShape(t *testing.T) {
	cl := newCluster(t, 1, false)
	wantStatus, wantType, want := get(t, cl.shards[0].base+"/v1/datasets/nope")
	status, ctype, got := get(t, cl.ts.URL+"/v1/datasets/nope")
	if status != wantStatus || ctype != wantType || !bytes.Equal(got, want) {
		t.Errorf("unknown dataset through the router: %d %q %q, the daemon says %d %q %q",
			status, ctype, got, wantStatus, wantType, want)
	}

	resp, err := http.Post(cl.ts.URL+"/v1/shards/zz/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != wantType ||
		string(body) != `{"error":"unknown shard \"zz\""}`+"\n" {
		t.Errorf("draining an unknown shard: %d %q %q", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
}

// cutter makes a shard answer one armed request with a response it never
// finishes: the header promises a body, a few bytes follow, and the
// connection is closed. It fires once, then passes everything through.
type cutter struct {
	mu           sync.Mutex
	method, path string
	status       int
	fired        bool
}

func (c *cutter) arm(method, path string, status int) {
	c.mu.Lock()
	c.method, c.path, c.status = method, path, status
	c.mu.Unlock()
}

func (c *cutter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		cut := c.path != "" && r.Method == c.method && r.URL.Path == c.path
		status := c.status
		if cut {
			c.path, c.fired = "", true
		}
		c.mu.Unlock()
		if !cut {
			h.ServeHTTP(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"id\":",
			status, http.StatusText(status))
		buf.Flush()
		conn.Close()
	})
}

func (c *cutter) didFire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// newCutCluster is a 2-shard cluster whose shards each carry a cutter.
func newCutCluster(t *testing.T) (*cluster, []*cutter) {
	cuts := []*cutter{{}, {}}
	cl := newWrappedCluster(t, 2, false, func(i int) func(http.Handler) http.Handler { return cuts[i].wrap })
	return cl, cuts
}

// shardUp reads the router's verdict on the shard at base.
func shardUp(t *testing.T, cl *cluster, base string) bool {
	t.Helper()
	var shards ShardsResponse
	if err := cl.c.Do("GET", "/v1/shards", nil, &shards); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards.Shards {
		if sh.Base == base {
			return sh.Up
		}
	}
	t.Fatalf("no shard at %s", base)
	return false
}

// TestShardCutMidBodyIsATransportFailure cuts the shard's response short on
// each request the router reads whole — a create, and a migration's
// export, import and delete. Each marks the cut shard down and fails with
// 502 ("unreachable"), as any transport failure does; none relays a
// truncated answer or counts as a success. After a health check the
// migration resumes and completes.
func TestShardCutMidBodyIsATransportFailure(t *testing.T) {
	t.Run("create", func(t *testing.T) {
		cl, cuts := newCutCluster(t)
		for _, c := range cuts {
			c.arm("POST", "/v1/datasets", http.StatusCreated)
		}
		resp, err := http.Post(cl.ts.URL+"/v1/datasets", "application/json",
			strings.NewReader(`{"id":"c","csv":"Day,City,Delay\nMon,NY,10\nTue,LA,12\n","measure":"Delay"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading the router's answer: %v", err)
		}
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "unreachable") {
			t.Fatalf("create cut mid-body: %d %s, want 502 unreachable", resp.StatusCode, body)
		}
		for i, c := range cuts {
			if c.didFire() && shardUp(t, cl, cl.shards[i].base) {
				t.Errorf("shard %d cut the create short and is still up", i)
			}
		}
	})

	for _, step := range []struct {
		name           string
		onDest         bool
		method, path   string
		status         int
		resumedOnRetry bool
	}{
		{"export", false, "GET", "/v1/datasets/m/export", http.StatusOK, false},
		{"import", true, "POST", "/v1/datasets/import", http.StatusCreated, false},
		{"delete", false, "DELETE", "/v1/datasets/m", http.StatusOK, true},
	} {
		t.Run(step.name, func(t *testing.T) {
			cl, cuts := newCutCluster(t)
			if _, err := cl.c.CreateSession(server.CreateRequest{ID: "m", CSV: testCSV, Measure: "Delay"}); err != nil {
				t.Fatal(err)
			}
			row := appendRow(t, cl.c, "m", 5)
			if _, err := cl.c.AppendRows("m", server.AppendRequest{Rows: []server.RowJSON{row}}); err != nil {
				t.Fatal(err)
			}
			before, err := cl.c.GetSession("m")
			if err != nil {
				t.Fatal(err)
			}
			origin, dest, cut := 0, 1, 0
			if cl.holder(t, "m") != cl.shards[0] {
				origin, dest = 1, 0
			}
			if cut = origin; step.onDest {
				cut = dest
			}
			cuts[cut].arm(step.method, step.path, step.status)

			resp := migrate(t, cl, cl.shards[origin])
			if !cuts[cut].didFire() {
				t.Fatalf("the %s was never sent", step.name)
			}
			if len(resp.Failed) != 1 || resp.Remaining != 1 || !strings.Contains(resp.Failed[0].Error, "unreachable") {
				t.Fatalf("migration with its %s cut short: %+v, want one unreachable failure", step.name, resp)
			}
			if shardUp(t, cl, cl.shards[cut].base) {
				t.Fatalf("shard cut short on the %s is still up", step.name)
			}

			cl.rt.CheckHealth()
			resp = migrate(t, cl, cl.shards[origin])
			if resp.Remaining != 0 || len(resp.Moved) != 1 || resp.Moved[0].Resumed != step.resumedOnRetry {
				t.Fatalf("re-run migration: %+v", resp)
			}
			after, err := cl.c.GetSession("m")
			if err != nil {
				t.Fatal(err)
			}
			if after.Rows != before.Rows || after.Stats.Epoch != before.Stats.Epoch || after.Stats.Fingerprint != before.Stats.Fingerprint {
				t.Fatalf("session after the resumed migration: rows %d epoch %d fp %s, want %d %d %s",
					after.Rows, after.Stats.Epoch, after.Stats.Fingerprint, before.Rows, before.Stats.Epoch, before.Stats.Fingerprint)
			}
			if cl.holder(t, "m") != cl.shards[dest] {
				t.Fatal("session not on the destination after the resumed migration")
			}
		})
	}
}
