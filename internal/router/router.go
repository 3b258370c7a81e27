// Package router implements sirumr: a sharding router that fronts N sirumd
// shard daemons and serves the same /v1 API as one big daemon. The paper's
// premise is that informative rule mining scales out across workers; one
// daemon scales queries across cores, and the router is the next rung —
// sessions spread across machines, each held by exactly one shard.
//
// Placement is consistent hashing over the session's canonical identity
// (internal/spec): a create with an explicit id routes by its dataset
// spec fingerprint, computable from the request body alone, so sessions
// over identical sources co-locate and share their shard's result cache;
// anonymous auto-id creates route by the router-assigned session id, which
// spreads identical-spec sessions evenly instead. The ring hashes shard
// *positions*, not addresses, so placement survives restarts and moves.
//
// The router keeps a session→shard table (rebuilt from shard listings on
// boot and on lookup misses, so restarted routers and snapshot-restored
// shards converge), health-checks every shard, and marks shards down on
// failed checks or proxy transport errors. Requests for a down shard's
// sessions fail fast with 502/503 JSON errors while every other shard
// serves unimpeded; a shard restarted from its -snapshot directory is
// marked up again and its sessions resume at their prior epochs.
// GET /v1/datasets merges the healthy shards' listings; GET /v1/metrics
// rolls their metric families up into one document, per-shard series
// labelled by shard.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sirum/internal/server"
	"sirum/internal/spec"
)

// Config wires a router to its shard topology.
type Config struct {
	// Shards are the shard daemons' base URLs, in topology order. The order
	// is part of the cluster identity — placement hashes positions — so it
	// must stay stable across router restarts.
	Shards []string
	// Replicas is the number of virtual ring points per shard (default 128;
	// more points, smoother balance).
	Replicas int
	// HealthInterval spaces the background health sweeps (default 2s;
	// negative disables the loop — tests drive CheckHealth directly).
	HealthInterval time.Duration
	// Timeout bounds one proxied request (default 2 minutes, room for a
	// cold mine on a large session).
	Timeout time.Duration
}

// healthTimeout bounds one health probe.
const healthTimeout = 2 * time.Second

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 128
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	return c
}

// shard is one backend daemon: clients, health state and observed load.
type shard struct {
	index  int
	base   string
	client *server.Client // data plane, Config.Timeout
	health *server.Client // health probes, healthTimeout

	down     atomic.Bool
	draining atomic.Bool
	sessions atomic.Int64 // last observed session count
	id       atomic.Value // string: logical shard id ("s<index>" until healthz reports one)
	lastErr  atomic.Value // string: most recent failure, kept across recoveries
}

// label returns the shard's logical id for errors, metrics and /v1/shards.
func (sh *shard) label() string { return sh.id.Load().(string) }

func (sh *shard) lastError() string {
	if v := sh.lastErr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Router fronts the shard set. Create with New, optionally Start the
// health loop, serve via Handler, stop with Close.
type Router struct {
	conf   Config
	mux    *http.ServeMux
	shards []*shard
	ring   *ring

	mu         sync.Mutex
	table      map[string]*shard // session id → home shard
	gates      map[string]*gate  // session id → migration write gate, while held or awaited
	nextID     int               // auto-assigned session ids r1, r2, ...
	lastResync time.Time

	proxied   atomic.Int64 // requests relayed to a shard (any status)
	proxyErrs atomic.Int64 // transport failures talking to shards
	migrated  atomic.Int64 // sessions moved off a shard by /migrate

	loop      sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	loopDone  chan struct{}
}

// New builds a router over the given topology and primes its view of the
// cluster with one synchronous health sweep and table resync — best
// effort: unreachable shards start marked down rather than failing boot.
func New(conf Config) (*Router, error) {
	conf = conf.withDefaults()
	if len(conf.Shards) == 0 {
		return nil, errors.New("router: at least one shard is required")
	}
	seen := make(map[string]bool, len(conf.Shards))
	rt := &Router{
		conf:     conf,
		mux:      http.NewServeMux(),
		ring:     newRing(len(conf.Shards), conf.Replicas),
		table:    make(map[string]*shard),
		gates:    make(map[string]*gate),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	for i, base := range conf.Shards {
		base = strings.TrimRight(base, "/")
		if base == "" {
			return nil, fmt.Errorf("router: shard %d has an empty URL", i)
		}
		if u, err := url.Parse(base); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("router: shard %d URL %q is not an absolute http(s) URL with a host", i, base)
		}
		if seen[base] {
			return nil, fmt.Errorf("router: shard URL %q listed twice", base)
		}
		seen[base] = true
		sh := &shard{
			index:  i,
			base:   base,
			client: &server.Client{BaseURL: base, HTTP: &http.Client{Timeout: conf.Timeout}},
			health: &server.Client{BaseURL: base, HTTP: &http.Client{Timeout: healthTimeout}},
		}
		sh.id.Store(fmt.Sprintf("s%d", i))
		rt.shards = append(rt.shards, sh)
	}
	rt.mux.HandleFunc("POST /v1/datasets", rt.wrap(rt.handleCreate))
	rt.mux.HandleFunc("GET /v1/datasets", rt.wrap(rt.handleList))
	rt.mux.HandleFunc("GET /v1/datasets/{id}", rt.wrap(rt.handleSession))
	rt.mux.HandleFunc("DELETE /v1/datasets/{id}", rt.wrap(rt.handleSession))
	rt.mux.HandleFunc("POST /v1/datasets/{id}/{op}", rt.wrap(rt.handleSession))
	rt.mux.HandleFunc("GET /v1/datasets/{id}/export", rt.wrap(rt.handleExportProxy))
	rt.mux.HandleFunc("GET /v1/metrics", rt.wrap(rt.handleMetrics))
	rt.mux.HandleFunc("GET /v1/healthz", rt.wrap(rt.handleHealth))
	rt.mux.HandleFunc("GET /v1/shards", rt.wrap(rt.handleShards))
	rt.mux.HandleFunc("POST /v1/shards/{id}/drain", rt.wrap(rt.handleDrain(true)))
	rt.mux.HandleFunc("POST /v1/shards/{id}/undrain", rt.wrap(rt.handleDrain(false)))
	rt.mux.HandleFunc("POST /v1/shards/{id}/migrate", rt.wrap(rt.handleMigrate))
	rt.CheckHealth()
	rt.Resync()
	return rt, nil
}

// Handler returns the router's HTTP handler: the full /v1 shard surface
// plus the /v1/shards cluster-control endpoints.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start launches the background health loop. Safe to call once; Close
// stops it.
func (rt *Router) Start() {
	if rt.conf.HealthInterval < 0 {
		return
	}
	rt.loop.Do(func() {
		go func() {
			defer close(rt.loopDone)
			t := time.NewTicker(rt.conf.HealthInterval)
			defer t.Stop()
			for {
				select {
				case <-rt.stop:
					return
				case <-t.C:
					rt.CheckHealth()
				}
			}
		}()
	})
}

// Close stops the health loop. The shards are not touched: the router owns
// no sessions, only the map of where they live. Idempotent and safe to
// call concurrently: a select-then-close would let two callers both see
// the channel open and double-close it.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() { close(rt.stop) })
	if rt.conf.HealthInterval >= 0 {
		rt.loop.Do(func() { close(rt.loopDone) }) // loop never started
		<-rt.loopDone
	}
	return nil
}

// CheckHealth probes every shard once, concurrently, flipping down/up
// marks and refreshing observed session counts and logical shard ids.
func (rt *Router) CheckHealth() {
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			h, err := sh.health.Health()
			if err != nil {
				rt.markDown(sh, err)
				return
			}
			sh.sessions.Store(int64(h.Sessions))
			if h.ShardID != "" {
				sh.id.Store(h.ShardID)
			}
			sh.down.Store(false)
		}(sh)
	}
	wg.Wait()
}

// markDown records a shard failure: the shard stops receiving placements
// and its sessions answer 503 until a health check sees it again.
func (rt *Router) markDown(sh *shard, err error) {
	sh.lastErr.Store(err.Error())
	sh.down.Store(true)
}

// Resync refreshes the session table from the healthy shards' listings
// and returns the merged listing. It merges rather than replaces: a
// listing is a snapshot taken before concurrent creates commit, so an
// entry absent from every listing is kept, not dropped — sessions mapped
// to down shards still live there (forgetting them would turn "shard
// down" (503) into "no such dataset" (404)), just-created sessions would
// otherwise 404 behind the resync throttle, and a genuinely stale entry
// self-heals when the shard's 404 passes through handleSession and drops
// it.
func (rt *Router) Resync() []server.SessionInfo {
	type result struct {
		sh   *shard
		list server.ListResponse
		err  error
	}
	results := make([]result, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if sh.down.Load() {
			results[i] = result{sh: sh, err: errors.New("down")}
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			list, err := sh.client.ListSessions()
			results[i] = result{sh: sh, list: list, err: err}
		}(i, sh)
	}
	wg.Wait()

	newTable := make(map[string]*shard)
	claimants := make(map[string][]*shard) // every shard listing each id
	maxAuto := 0
	var merged []server.SessionInfo
	for _, res := range results {
		if res.err != nil {
			continue
		}
		res.sh.sessions.Store(int64(len(res.list.Sessions)))
		for _, info := range res.list.Sessions {
			if n, ok := parseAutoID(info.ID); ok && n > maxAuto {
				maxAuto = n
			}
			claimants[info.ID] = append(claimants[info.ID], res.sh)
			if _, dup := newTable[info.ID]; dup {
				continue // split-brain id: first shard in topology order wins
			}
			newTable[info.ID] = res.sh
			merged = append(merged, info)
		}
	}
	rt.mu.Lock()
	for id, sh := range newTable {
		if cur, ok := rt.table[id]; ok && cur != sh && containsShard(claimants[id], cur) {
			// Two shards list the id and the table already points at one of
			// them: keep it. The duplicate is a migration whose origin
			// delete has not landed yet — the table was retargeted
			// deliberately, and flipping back by topology order would route
			// appends to the abandoned copy.
			continue
		}
		rt.table[id] = sh
	}
	// Seed the auto-id counter past every id the cluster already holds, so
	// a restarted router (or one that booted while a shard was unreachable)
	// never re-assigns a live session's id.
	if maxAuto > rt.nextID {
		rt.nextID = maxAuto
	}
	rt.lastResync = time.Now()
	rt.mu.Unlock()
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	return merged
}

// maybeResync runs Resync unless one ran in the last quarter second — the
// lookup-miss path must not let a storm of unknown-id requests fan out to
// every shard per request.
func (rt *Router) maybeResync() {
	rt.mu.Lock()
	recent := time.Since(rt.lastResync) < 250*time.Millisecond
	rt.mu.Unlock()
	if !recent {
		rt.Resync()
	}
}

// Place returns the base URL of the shard a routing key places on right
// now: the key's home shard, or the next ring successor while the home
// shard is down or draining. This is the placement hook tests and
// operators use to predict where a session will land.
func (rt *Router) Place(key [32]byte) (string, error) {
	sh, err := rt.place(key)
	if err != nil {
		return "", err
	}
	return sh.base, nil
}

func (rt *Router) place(key [32]byte) (*shard, error) {
	for _, idx := range rt.ring.walk(key) {
		sh := rt.shards[idx]
		if !sh.down.Load() && !sh.draining.Load() {
			return sh, nil
		}
	}
	return nil, errf(http.StatusServiceUnavailable, "no healthy shard accepts new sessions")
}

// locate resolves a session id to its home shard, resyncing the table once
// on a miss so restarted routers and snapshot-restored shards converge.
func (rt *Router) locate(id string) *shard {
	rt.mu.Lock()
	sh := rt.table[id]
	rt.mu.Unlock()
	if sh != nil {
		return sh
	}
	rt.maybeResync()
	rt.mu.Lock()
	sh = rt.table[id]
	rt.mu.Unlock()
	return sh
}

func (rt *Router) setTable(id string, sh *shard) {
	rt.mu.Lock()
	rt.table[id] = sh
	rt.mu.Unlock()
}

func (rt *Router) dropTable(id string) {
	rt.mu.Lock()
	delete(rt.table, id)
	rt.mu.Unlock()
}

// assignID picks the next free auto id. Auto-id sessions route by this
// name (spec.RoutingKeyForID), so a burst of identical anonymous specs
// spreads across the ring instead of piling onto one shard. The counter
// is seeded past every id seen in resyncs; the table check alone is not
// enough, because a shard unreachable during a resync keeps its sessions
// out of the table without freeing their ids.
func (rt *Router) assignID() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		rt.nextID++
		id := fmt.Sprintf("r%d", rt.nextID)
		if _, exists := rt.table[id]; !exists {
			return id
		}
	}
}

// parseAutoID extracts n from a router-assigned session id "r<n>".
func parseAutoID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'r' {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

func containsShard(shards []*shard, sh *shard) bool {
	for _, s := range shards {
		if s == sh {
			return true
		}
	}
	return false
}

// gate is a session's migration write gate. refs counts, under Router.mu,
// the callers holding it or waiting for it.
type gate struct {
	sync.RWMutex
	refs int
}

// lockGate takes the session's migration write gate and returns its
// release. Session operations hold it shared around locate-and-forward;
// migrateSession holds it exclusively across export → import → cutover,
// so a write either completes on the origin before the consistent cut or
// routes to the destination after it — never lost in between. The
// reference is taken before blocking on the lock, so a writer waiting
// behind a migration keeps the gate it waits on in the map; the last
// release deletes it, and the map holds only gates in use.
func (rt *Router) lockGate(id string, exclusive bool) (release func()) {
	rt.mu.Lock()
	g := rt.gates[id]
	if g == nil {
		g = new(gate)
		rt.gates[id] = g
	}
	g.refs++
	rt.mu.Unlock()
	if exclusive {
		g.Lock()
	} else {
		g.RLock()
	}
	return func() {
		if exclusive {
			g.Unlock()
		} else {
			g.RUnlock()
		}
		rt.mu.Lock()
		if g.refs--; g.refs == 0 {
			delete(rt.gates, id)
		}
		rt.mu.Unlock()
	}
}

// apiError, errf, writeJSON and wrap mirror the shard daemon's uniform
// JSON error surface, so clients cannot tell a router error from a shard
// error by shape.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (rt *Router) wrap(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			status, msg := http.StatusInternalServerError, err.Error()
			var ae *apiError
			if errors.As(err, &ae) {
				status, msg = ae.status, ae.msg
			}
			writeJSON(w, status, server.ErrorResponse{Error: msg})
		}
	}
}

var errBodyTooLarge = errf(http.StatusRequestEntityTooLarge, "request body over %d bytes", server.DefaultMaxBodyBytes)

// capBody puts r's body under the router's size cap, the shard daemons'
// own default cap. A declared length over it is refused before a byte is
// read or a shard is contacted.
func capBody(w http.ResponseWriter, r *http.Request) (*capReader, error) {
	if r.ContentLength > server.DefaultMaxBodyBytes {
		return nil, errBodyTooLarge
	}
	return &capReader{r: http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes)}, nil
}

// readBody drains a request body under the router's size cap.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	cr, err := capBody(w, r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(cr)
	if cr.tooLarge {
		return nil, errBodyTooLarge
	}
	if err != nil {
		return nil, errf(http.StatusBadRequest, "reading request body: %v", err)
	}
	return body, nil
}

// relay writes a shard's raw response through unchanged.
func relay(w http.ResponseWriter, raw *server.RawResponse) {
	if raw.ContentType != "" {
		w.Header().Set("Content-Type", raw.ContentType)
	}
	w.WriteHeader(raw.Status)
	w.Write(raw.Body)
}

// relayStream copies a shard's streaming response through unchanged, without
// ever holding the body in memory.
func relayStream(w http.ResponseWriter, resp *server.StreamResponse) {
	defer resp.Body.Close()
	if resp.ContentType != "" {
		w.Header().Set("Content-Type", resp.ContentType)
	}
	w.WriteHeader(resp.Status)
	io.Copy(w, resp.Body)
}

// capReader streams a request body through the router's size cap, recording
// why the stream failed — the cap firing, or the client's own connection
// dying mid-upload — so the proxy can answer 413 or 400 instead of blaming
// the shard for an upload the client aborted.
type capReader struct {
	r        io.Reader
	tooLarge bool
	readErr  error // first client-side read failure (not EOF, not the cap)
}

func (cr *capReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if err != nil && err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			cr.tooLarge = true
		} else if cr.readErr == nil {
			cr.readErr = err
		}
	}
	return n, err
}

// forward proxies one request to a shard, converting transport failures
// into a mark-down plus a 502 — the shard is unreachable, which is not the
// client's fault and not a router bug.
func (rt *Router) forward(sh *shard, method, path, contentType string, body []byte) (*server.RawResponse, error) {
	raw, err := sh.client.DoRaw(method, path, contentType, body)
	if err != nil {
		rt.proxyErrs.Add(1)
		rt.markDown(sh, err)
		return nil, errf(http.StatusBadGateway, "shard %s is unreachable: %v", sh.label(), err)
	}
	rt.proxied.Add(1)
	return raw, nil
}

// forwardStream proxies one request to a shard end to end without buffering:
// the client body streams up (under the size cap carried by body, when set)
// and the shard response streams back. Transport failures mark the shard
// down exactly like forward — unless the failure was the client's: a
// cap-aborted upload answers 413 and a client body stream that died
// mid-upload answers 400, neither touching the shard's health.
func (rt *Router) forwardStream(sh *shard, method, path, contentType string, body *capReader, length int64) (*server.StreamResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = body
	}
	resp, err := sh.client.DoStream(method, path, contentType, rd, length)
	if err != nil {
		if body != nil && body.tooLarge {
			return nil, errBodyTooLarge
		}
		if body != nil && body.readErr != nil {
			// The shard connection held; the *client's* body stream died
			// mid-upload. That is not the shard's fault — marking it down
			// would take a healthy shard out of rotation on every dropped
			// client connection.
			return nil, errf(http.StatusBadRequest, "reading request body: %v", body.readErr)
		}
		rt.proxyErrs.Add(1)
		rt.markDown(sh, err)
		return nil, errf(http.StatusBadGateway, "shard %s is unreachable: %v", sh.label(), err)
	}
	rt.proxied.Add(1)
	return resp, nil
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) error {
	body, err := rt.readBody(w, r)
	if err != nil {
		return err
	}
	var req server.CreateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return errf(http.StatusBadRequest, "bad request body: %v", err)
	}

	if req.ID == "" {
		return rt.createAutoID(w, req)
	}
	if !server.ValidSessionID(req.ID) {
		return errf(http.StatusBadRequest, "session id %q: want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric", req.ID)
	}
	rt.mu.Lock()
	_, exists := rt.table[req.ID]
	rt.mu.Unlock()
	if exists {
		return errf(http.StatusConflict, "dataset %q already exists", req.ID)
	}
	ds, err := req.DatasetSpec()
	if err != nil {
		// Every DatasetSpec failure is a malformed source description;
		// the shard would reject it with 400 too, just one hop later.
		return errf(http.StatusBadRequest, "%v", err)
	}
	key := spec.RoutingKey(ds)
	// A named create whose home shard is down must wait, not fall
	// through the ring: the router cannot prove the id unused on a
	// shard it cannot reach, and landing the name elsewhere would
	// split-brain it when the shard returns with its sessions.
	// (Draining is different — a draining shard is reachable and its
	// sessions are in the table, so the successor is safe.)
	if home := rt.shards[rt.ring.walk(key)[0]]; home.down.Load() {
		return errf(http.StatusServiceUnavailable,
			"home shard %s for dataset %q is down; retry when it returns", home.label(), req.ID)
	}

	sh, err := rt.place(key)
	if err != nil {
		return err
	}
	// Explicit-id bodies forward byte-identical.
	raw, err := rt.forward(sh, "POST", "/v1/datasets", "application/json", body)
	if err != nil {
		return err
	}
	if raw.Status == http.StatusCreated {
		rt.setTable(req.ID, sh)
		sh.sessions.Add(1)
	}
	relay(w, raw)
	return nil
}

// createAutoID places an anonymous create under a router-assigned id. A
// shard answering 409 means the id is live on a shard the table did not
// know about (say, one unreachable during a boot resync) — the client
// never chose the id, so relaying the conflict would be a bogus failure;
// assign the next id and retry instead. The retry bound only guards
// against a misbehaving shard that 409s everything.
func (rt *Router) createAutoID(w http.ResponseWriter, req server.CreateRequest) error {
	for attempt := 0; ; attempt++ {
		req.ID = rt.assignID()
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		sh, err := rt.place(spec.RoutingKeyForID(req.ID))
		if err != nil {
			return err
		}
		raw, err := rt.forward(sh, "POST", "/v1/datasets", "application/json", body)
		if err != nil {
			return err
		}
		if raw.Status == http.StatusConflict && attempt < 16 {
			continue
		}
		if raw.Status == http.StatusCreated {
			rt.setTable(req.ID, sh)
			sh.sessions.Add(1)
		}
		relay(w, raw)
		return nil
	}
}

// handleSession proxies every per-session operation — get, delete, mine,
// explore, append — to the session's home shard.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	path := "/v1/datasets/" + id
	op := r.PathValue("op")
	switch op {
	case "":
	case "mine", "explore", "append":
		path += "/" + op
	default:
		return errf(http.StatusNotFound, "unknown operation %q", op)
	}
	// Every session operation takes the migration gate shared, *before*
	// the table lookup: a migration holds it exclusively across its
	// consistent cut and cutover, so an operation either lands on the
	// origin before the export or waits and routes to the destination —
	// never in the window where the origin copy is being deleted. Holding
	// the gate through the relay also keeps in-flight reads draining on
	// the origin until cutover. The ungated precheck answers unknown ids
	// without touching the gate map.
	if rt.locate(id) == nil {
		return errf(http.StatusNotFound, "unknown dataset %q", id)
	}
	defer rt.lockGate(id, false)()
	sh := rt.locate(id)
	if sh == nil {
		return errf(http.StatusNotFound, "unknown dataset %q", id)
	}
	if sh.down.Load() {
		return errf(http.StatusServiceUnavailable, "dataset %q lives on shard %s, which is marked down", id, sh.label())
	}
	// Session operations are pure relays: the router never interprets the
	// bodies, so both directions stream instead of buffering whole payloads
	// (appends can carry megabytes of rows, mines return full rule lists).
	var body *capReader
	length := int64(-1)
	if r.Method == http.MethodPost {
		var err error
		if body, err = capBody(w, r); err != nil {
			return err
		}
		length = r.ContentLength
	}
	resp, err := rt.forwardStream(sh, r.Method, path, r.Header.Get("Content-Type"), body, length)
	if err != nil {
		return err
	}
	switch {
	case r.Method == http.MethodDelete && resp.Status == http.StatusNoContent:
		rt.dropTable(id)
		sh.sessions.Add(-1)
	case resp.Status == http.StatusNotFound:
		// The table thought the session lived there but the shard disagrees
		// (e.g. it restarted without its snapshot): forget the stale entry
		// so the next lookup resyncs instead of bouncing off it forever.
		rt.dropTable(id)
	}
	relayStream(w, resp)
	return nil
}

// handleExportProxy relays GET /v1/datasets/{id}/export to the session's
// home shard, so operators can pull a migration document through the
// router (migrateSession itself talks to the origin shard directly).
func (rt *Router) handleExportProxy(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if rt.locate(id) == nil {
		return errf(http.StatusNotFound, "unknown dataset %q", id)
	}
	defer rt.lockGate(id, false)()
	sh := rt.locate(id)
	if sh == nil {
		return errf(http.StatusNotFound, "unknown dataset %q", id)
	}
	if sh.down.Load() {
		return errf(http.StatusServiceUnavailable, "dataset %q lives on shard %s, which is marked down", id, sh.label())
	}
	resp, err := rt.forwardStream(sh, http.MethodGet, "/v1/datasets/"+id+"/export", "", nil, -1)
	if err != nil {
		return err
	}
	if resp.Status == http.StatusNotFound {
		rt.dropTable(id)
	}
	relayStream(w, resp)
	return nil
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) error {
	merged := rt.Resync()
	if merged == nil {
		merged = []server.SessionInfo{}
	}
	writeJSON(w, http.StatusOK, server.ListResponse{Sessions: merged})
	return nil
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) error {
	up := 0
	for _, sh := range rt.shards {
		if !sh.down.Load() {
			up++
		}
	}
	status := "ok"
	switch {
	case up == 0:
		status = "down"
	case up < len(rt.shards):
		status = "degraded"
	}
	rt.mu.Lock()
	sessions := len(rt.table)
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      status,
		Shards:      len(rt.shards),
		ShardsUp:    up,
		Sessions:    sessions,
		Proxied:     rt.proxied.Load(),
		ProxyErrors: rt.proxyErrs.Load(),
	})
	return nil
}

func (rt *Router) shardInfos() []ShardInfo {
	infos := make([]ShardInfo, 0, len(rt.shards))
	for _, sh := range rt.shards {
		infos = append(infos, ShardInfo{
			Index:     sh.index,
			ID:        sh.label(),
			Base:      sh.base,
			Up:        !sh.down.Load(),
			Draining:  sh.draining.Load(),
			Sessions:  sh.sessions.Load(),
			LastError: sh.lastError(),
		})
	}
	return infos
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, ShardsResponse{Shards: rt.shardInfos()})
	return nil
}

// handleDrain flips a shard's draining mark by logical id: a draining
// shard keeps serving its sessions but receives no new placements, the
// graceful half of decommissioning.
func (rt *Router) handleDrain(drain bool) func(w http.ResponseWriter, r *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		id := r.PathValue("id")
		for _, sh := range rt.shards {
			if sh.label() == id || fmt.Sprintf("s%d", sh.index) == id {
				sh.draining.Store(drain)
				writeJSON(w, http.StatusOK, rt.shardInfos()[sh.index])
				return nil
			}
		}
		return errf(http.StatusNotFound, "unknown shard %q", id)
	}
}
