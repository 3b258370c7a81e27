package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sirum"
	"sirum/internal/router"
	"sirum/internal/server"
)

// The two serving workloads: the same open-loop schedule sent to one
// sirumd ("serve") or to a router fronting two ("route"), all in this
// process, over loopback TCP, journal fsync on.

// tmpRoot holds snapshot directories. It is inside the working directory
// because the benchmark may write nowhere else; .gitignore names it.
const tmpRoot = ".bench_tmp"

// daemon is one in-process sirumd behind a loopback listener.
type daemon struct {
	conf   server.Config
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string
}

// startDaemon builds a server on conf, restores whatever conf.SnapshotDir
// journals, and serves it. The returned duration is New+Restore alone.
func startDaemon(conf server.Config) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(conf)
	if _, err := srv.Restore(); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("restore: %w", err)
	}
	restore := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	d := &daemon{conf: conf, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return d, restore, nil
}

// stop closes the listener and every connection, waits for the serve loop
// to return, then drains and closes the sessions.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.served
	d.srv.Close()
}

// cluster is what a serving workload talks to: one daemon, or a router in
// front of several. front is the base URL clients use.
type cluster struct {
	dir     string
	daemons []*daemon
	rt      *router.Router
	rtHTTP  *http.Server
	rtDone  chan struct{}
	front   string
}

func startCluster(routed bool, sz sizes) (*cluster, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "snap")
	if err != nil {
		return nil, err
	}
	cl := &cluster{dir: dir}
	n := 1
	if routed {
		n = sz.Shards
	}
	for i := 0; i < n; i++ {
		conf := server.Config{SnapshotDir: filepath.Join(dir, fmt.Sprintf("shard%d", i))}
		if routed {
			conf.ShardID = fmt.Sprintf("s%d", i)
		}
		d, _, err := startDaemon(conf)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.daemons = append(cl.daemons, d)
	}
	cl.front = cl.daemons[0].base
	if routed {
		var bases []string
		for _, d := range cl.daemons {
			bases = append(bases, d.base)
		}
		// The health loop stays off: nothing dies here, and a sweep landing
		// inside the window would be noise.
		cl.rt, err = router.New(router.Config{Shards: bases, HealthInterval: -1})
		if err != nil {
			cl.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.rtHTTP = &http.Server{Handler: cl.rt.Handler()}
		cl.rtDone = make(chan struct{})
		go func() {
			defer close(cl.rtDone)
			cl.rtHTTP.Serve(ln)
		}()
		cl.front = "http://" + ln.Addr().String()
	}
	return cl, nil
}

func (cl *cluster) stop() {
	if cl.rtHTTP != nil {
		cl.rtHTTP.Close()
		<-cl.rtDone
	}
	if cl.rt != nil {
		cl.rt.Close()
	}
	for _, d := range cl.daemons {
		d.stop()
	}
	os.RemoveAll(cl.dir)
}

// newClient returns a client with one keep-alive connection of its own.
func newClient(base string) *server.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &server.Client{BaseURL: base, HTTP: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// servePlan is a set-up serving workload.
type servePlan struct {
	sz       sizes
	cl       *cluster
	ids      []string
	oracle   []*sessionOracle
	batches  [][]*table // per session; batch 0 is appended during set-up
	sched    []arrival
	digest   string
	baseline string    // digest of the sessions' baseline answers after set-up
	createMS []float64 // how long each session's create took

	// Read from outside around the window, for the per-layer metrics.
	journalBefore, journalAfter int64
	queuedMax                   int64   // highest /v1/healthz "queued" seen (traced runs sample it)
	balance                     float64 // most sessions on a shard over the mean, before any drain
	exportBytes                 float64 // mean export document size
	counters                    map[string]float64
}

// sessionOracle is the benchmark's own account of one session: its rows at
// every epoch, and every answer already verified.
type sessionOracle struct {
	tables   []*table         // tables[e] is the data at epoch e
	datasets []*sirum.Dataset // built on demand for the refit
	verified map[string]string
}

func (o *sessionOracle) dataset(epoch int) (*sirum.Dataset, error) {
	for len(o.datasets) <= epoch {
		o.datasets = append(o.datasets, nil)
	}
	if o.datasets[epoch] == nil {
		ds, err := o.tables[epoch].public()
		if err != nil {
			return nil, err
		}
		o.datasets[epoch] = ds
	}
	return o.datasets[epoch], nil
}

var serveMineKs = []int{3, 5, 8, 10}

func mineRequest(spec int, sz sizes) server.MineRequest {
	return server.MineRequest{K: serveMineKs[spec%len(serveMineKs)], SampleSize: sz.ServeSample,
		Seed: int64(1 + spec/len(serveMineKs))}
}

func exploreRequest(spec int, sz sizes) server.ExploreRequest {
	return server.ExploreRequest{K: exploreKs[spec], GroupBys: sz.LightGroups}
}

func appendRequest(batch *table, sz sizes) server.AppendRequest {
	req := server.AppendRequest{MineRequest: server.MineRequest{K: 3, SampleSize: sz.ServeSample}}
	for i, row := range batch.rows {
		req.Rows = append(req.Rows, server.RowJSON{Dims: row, Measure: batch.m[i]})
	}
	return req
}

// servingInputs draws a serving workload's inputs — the schedule, and per
// session one set-up batch plus as many as the schedule appends — and their
// digest. It is a pure function of its arguments.
func servingInputs(seed int64, seconds float64, sz sizes) (sched []arrival, batches [][]*table, dig string) {
	sched = schedule(seed, seconds, sz)
	h := sha256.New()
	hashSchedule(h, sched)
	nb := 1 + batchesPerSession(sched, sz.Sessions)
	for s := 0; s < sz.Sessions; s++ {
		batches = append(batches, appendBatches(seed, s, nb, sz.ServeDims, sz))
		for _, b := range batches[s] {
			b.hashInto(h)
		}
	}
	return sched, batches, digest(h)
}

// buildServing draws the inputs and brings the cluster up: sessions
// created, one batch appended to each (a session's first append always
// re-mines; that transient belongs to set-up), and one mine and one explore
// answered so blocks are loaded and the index and memo are built.
func buildServing(routed bool, seed int64, seconds float64, sz sizes) (*servePlan, error) {
	pl := &servePlan{sz: sz}
	pl.sched, pl.batches, pl.digest = servingInputs(seed, seconds, sz)

	cl, err := startCluster(routed, sz)
	if err != nil {
		return nil, err
	}
	pl.cl = cl
	c := newClient(cl.front)
	for s := 0; s < sz.Sessions; s++ {
		id := fmt.Sprintf("b%d", s)
		base := sessionTable(s, sz)
		csv, err := base.csv()
		if err != nil {
			cl.stop()
			return nil, err
		}
		t0 := time.Now()
		if _, err := c.CreateSession(server.CreateRequest{ID: id, CSV: csv, Measure: base.measure,
			Prepare: server.PrepareSpec{SampleSize: sz.ServeSample}}); err != nil {
			cl.stop()
			return nil, fmt.Errorf("creating %s: %w", id, err)
		}
		pl.createMS = append(pl.createMS, ms(time.Since(t0)))
		pl.ids = append(pl.ids, id)
		pl.oracle = append(pl.oracle, &sessionOracle{
			tables:   []*table{base, base.concat(pl.batches[s][0])},
			verified: make(map[string]string),
		})
		if _, err := c.AppendRows(id, appendRequest(pl.batches[s][0], sz)); err != nil {
			cl.stop()
			return nil, fmt.Errorf("warm-up append on %s: %w", id, err)
		}
		if _, err := c.Mine(id, mineRequest(0, pl.sz)); err != nil {
			cl.stop()
			return nil, fmt.Errorf("warm-up mine on %s: %w", id, err)
		}
		if _, err := c.Explore(id, exploreRequest(0, sz)); err != nil {
			cl.stop()
			return nil, fmt.Errorf("warm-up explore on %s: %w", id, err)
		}
	}
	// The sessions' baseline answers, hashed: serve and route are given the
	// same sessions, so equal seeds must print equal baseline digests.
	states, err := pl.states(c)
	if err != nil {
		cl.stop()
		return nil, err
	}
	h := sha256.New()
	for _, st := range states {
		fmt.Fprintf(h, "%d %d %s\n", st.rows, st.epoch, st.answer)
	}
	pl.baseline = digest(h)
	return pl, nil
}

// request is one arrival turned into bytes on the wire.
type request struct {
	path  string
	body  []byte
	label string
}

func (pl *servePlan) request(a arrival) request {
	id := pl.ids[a.session]
	var v any
	var label string
	switch a.kind {
	case "mine":
		v, label = mineRequest(a.spec, pl.sz), fmt.Sprintf("mine/%d", a.spec)
	case "explore":
		v, label = exploreRequest(a.spec, pl.sz), fmt.Sprintf("explore/%d", a.spec)
	default:
		v, label = appendRequest(pl.batches[a.session][a.spec+1], pl.sz), fmt.Sprintf("append/%d", a.spec)
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of strings and numbers always marshal
	}
	return request{path: "/v1/datasets/" + id + "/" + a.kind, body: body, label: label}
}

// send performs one round trip on c's connection: done is stamped once the
// whole body has been read, decoding happens off the clock.
func send(c *server.Client, req request) (body []byte, sent, done time.Time, err error) {
	hreq, err := http.NewRequest(http.MethodPost, c.BaseURL+req.path, bytes.NewReader(req.body))
	if err != nil {
		return nil, sent, done, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	sent = time.Now()
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return nil, sent, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	done = time.Now()
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, sent, done, err
}

// decode fills a sample from a response body.
func (s *sample) decode(kind string, body []byte) {
	s.bytes = len(body)
	switch kind {
	case "mine":
		var r server.MineResponse
		if s.err = json.Unmarshal(body, &r); s.err == nil {
			s.take(r, nil)
		}
	case "explore":
		var r server.ExploreResponse
		if s.err = json.Unmarshal(body, &r); s.err == nil {
			s.take(r.MineResponse, r.Prior)
		}
	default:
		var r server.AppendResponse
		if s.err = json.Unmarshal(body, &r); s.err == nil {
			s.class, s.rules, s.rows, s.kl = classAppend, fromJSON(r.Rules), r.Rows, r.KL
		}
	}
}

func (s *sample) take(r server.MineResponse, prior []server.RuleJSON) {
	s.prior, s.rules, s.kl = fromJSON(prior), fromJSON(r.Rules), r.KL
	s.compute, s.metrics = r.WallNS, r.Metrics
	if r.Cached {
		s.class = classHit
	}
}

// openLoop sends the schedule: each arrival at its due time regardless of
// what is still in flight, over one keep-alive connection per worker and no
// more workers than CPUs. A worker that is free before the next arrival is
// due sleeps until then; one that is not sends late, and because every op
// is timed from when it was due, that wait is counted.
func (pl *servePlan) openLoop(rec *recorder, parent int) []sample {
	reqs := make([]request, len(pl.sched))
	for i, a := range pl.sched {
		reqs[i] = pl.request(a)
	}
	samples := make([]sample, len(pl.sched))
	bodies := make([][]byte, len(pl.sched))
	pl.journalBefore = dirBytes(pl.cl.dir)
	stopSampler := func() {}
	if rec != nil {
		stopSampler = pl.sampleQueued(rec)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	// A session's appends go out one at a time: were two in flight at once
	// (only an overloaded run gets there), the server could apply them in
	// either order and no oracle could say which rows an epoch holds.
	appending := make([]sync.Mutex, len(pl.ids))
	start := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(pl.cl.front)
			defer c.HTTP.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pl.sched) {
					return
				}
				a := pl.sched[i]
				s := &samples[i]
				*s = sample{class: a.kind, stratum: reqs[i].label, label: reqs[i].label, session: a.session,
					due: start.Add(time.Duration(a.due))}
				sleepUntil(s.due)
				if a.kind == "append" {
					appending[a.session].Lock()
				}
				bodies[i], s.sent, s.done, s.err = send(c, reqs[i])
				if a.kind == "append" {
					appending[a.session].Unlock()
				}
			}
		}()
	}
	wg.Wait()
	stopSampler()
	pl.journalAfter = dirBytes(pl.cl.dir)
	for i := range samples {
		s := &samples[i]
		if s.err == nil {
			s.decode(pl.sched[i].kind, bodies[i])
		}
		if rec != nil {
			id := rec.add(parent, "op", s.class+" "+s.label, s.due, s.done, nil)
			rec.add(id, "wait_conn", "", s.due, s.sent, nil)
			http := rec.add(id, "http", "", s.sent, s.done, queryAttrs(s.metrics, s.compute))
			if s.class != classHit && s.compute > 0 {
				rec.add(http, "compute", "", s.done.Add(-s.compute), s.done, nil)
			}
		}
	}
	return samples
}

// sampleQueued polls every daemon's /v1/healthz — straight into the
// handler, no connection — for the admission queue's depth, until the
// returned stop function is called.
func (pl *servePlan) sampleQueued(rec *recorder) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			for _, d := range pl.cl.daemons {
				w := httptest.NewRecorder()
				d.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
				var h server.HealthResponse
				if json.Unmarshal(w.Body.Bytes(), &h) == nil {
					pl.queuedMax = max(pl.queuedMax, h.Queued)
				}
			}
			rec.charge(t0)
		}
	}()
	return func() { close(quit); <-done }
}

// rowsAppended is how many rows the schedule's appends carried.
func (pl *servePlan) rowsAppended() int {
	n := 0
	for _, a := range pl.sched {
		if a.kind == "append" {
			n += pl.sz.BatchRows
		}
	}
	return n
}

// home finds the daemon that holds a session.
func (pl *servePlan) home(id string) *daemon {
	for _, d := range pl.cl.daemons {
		if _, err := newClient(d.base).GetSession(id); err == nil {
			return d
		}
	}
	return nil
}

// readCounters reads what the daemons count — cache hits and misses,
// evictions, admissions, rejections — off /v1/metrics (the router's rollup
// sums its shards) before a restart resets them.
func (pl *servePlan) readCounters() error {
	doc, err := newClient(pl.cl.front).MetricsText()
	if err != nil {
		return err
	}
	pl.counters = make(map[string]float64)
	for _, family := range []string{"sirumd_result_cache_hits_total", "sirumd_result_cache_misses_total",
		"sirumd_result_cache_evictions_total", "sirumd_queries_total", "sirumd_rejected_total"} {
		pl.counters[family] = sumMetric(doc, family)
	}
	return nil
}

// topology records, before any drain disturbs it, how evenly the router
// placed the sessions and how large a session's export document is.
func (pl *servePlan) topology() error {
	c := newClient(pl.cl.front)
	var shards router.ShardsResponse
	if err := c.Do("GET", "/v1/shards", nil, &shards); err != nil {
		return err
	}
	var most, total float64
	for _, sh := range shards.Shards {
		n := 0
		for _, id := range pl.ids {
			if d := pl.home(id); d != nil && d.base == sh.Base {
				n++
			}
		}
		most, total = math.Max(most, float64(n)), total+float64(n)
	}
	pl.balance = most / (total / float64(len(shards.Shards)))
	var sizes []float64
	for _, id := range pl.ids {
		raw, err := c.DoRaw("GET", "/v1/datasets/"+id+"/export", "", nil)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(raw.Body)))
	}
	pl.exportBytes = mean(sizes)
	return nil
}

// sleepUntil returns at t rather than a timer tick after it: on an idle
// processor timers here overshoot by up to a millisecond, several times a
// cache hit's latency, and every op is timed from its due time. Sleep most
// of the way, spin the rest — briefly, since the spinning worker shares two
// cores with the server.
func sleepUntil(t time.Time) {
	const spin = 1500 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// verify is the oracle pass over a serving workload's samples. A read that
// overlapped an append may have been answered at either epoch; it must
// check out against one of them. Each distinct (label, epoch) answer gets
// the full oracle once; every other answer for it must be identical.
func (pl *servePlan) verify(samples []sample) {
	type interval struct{ sent, done time.Time }
	appends := make([][]interval, len(pl.ids))
	for i, a := range pl.sched {
		if a.kind != "append" {
			continue
		}
		s := &samples[i]
		o := pl.oracle[a.session]
		epoch := a.spec + 2 // set-up appended batch 0
		o.tables = append(o.tables, o.tables[epoch-1].concat(pl.batches[a.session][a.spec+1]))
		appends[a.session] = append(appends[a.session], interval{s.sent, s.done})
		if s.err != nil {
			continue
		}
		if want := len(o.tables[epoch].rows); s.rows != want {
			s.err = fmt.Errorf("%s: reports %d rows, want %d", s.label, s.rows, want)
		} else if err := checkRules(o.tables[epoch], s.rules); err != nil {
			s.err = fmt.Errorf("%s: %w", s.label, err)
		}
	}
	for i, a := range pl.sched {
		s := &samples[i]
		if a.kind == "append" || s.err != nil {
			continue
		}
		lo, hi := 1, 1
		for _, ap := range appends[a.session] {
			if ap.done.Before(s.sent) {
				lo++
			}
			if ap.sent.Before(s.done) {
				hi++
			}
		}
		s.err = pl.oracle[a.session].check(s, lo, hi)
	}
}

// check verifies one read against the epochs it may have been answered at.
func (o *sessionOracle) check(s *sample, lo, hi int) error {
	answer := canonical(s.prior) + " => " + canonical(s.rules)
	var last error
	for e := lo; e <= hi; e++ {
		key := fmt.Sprintf("%s@%d", s.label, e)
		if seen, ok := o.verified[key]; ok {
			if seen == answer {
				return nil
			}
			last = fmt.Errorf("%s: differs from the verified answer at epoch %d", s.label, e)
			continue
		}
		ds, err := o.dataset(e)
		if err != nil {
			return err
		}
		if last = checkAnswer(o.tables[e], ds, s.prior, s.rules, s.kl); last == nil {
			o.verified[key] = answer
			return nil
		}
		last = fmt.Errorf("%s @epoch %d: %w", s.label, e, last)
	}
	return last
}

// sessionState is what must survive a restore or a migration.
type sessionState struct {
	rows   int
	epoch  int64
	answer string
}

// states asks every session for its rows, epoch and baseline answer.
func (pl *servePlan) states(c *server.Client) ([]sessionState, error) {
	out := make([]sessionState, len(pl.ids))
	for i, id := range pl.ids {
		info, err := c.GetSession(id)
		if err != nil {
			return nil, err
		}
		if info.Stats == nil {
			return nil, fmt.Errorf("session %s reports no stats", id)
		}
		res, err := c.Mine(id, mineRequest(0, pl.sz))
		if err != nil {
			return nil, err
		}
		out[i] = sessionState{rows: info.Rows, epoch: info.Stats.Epoch, answer: canonical(fromJSON(res.Rules))}
	}
	return out, nil
}

// sameStates counts the sessions that came back different.
func sameStates(before, after []sessionState) error {
	for i := range before {
		if before[i] != after[i] {
			return fmt.Errorf("session %d: rows/epoch %d/%d became %d/%d, or its baseline answer changed",
				i, before[i].rows, before[i].epoch, after[i].rows, after[i].epoch)
		}
	}
	return nil
}

// restore measures restart: stop the daemon, build a new one on the same
// snapshot directory, Restore. Each repetition is verified for
// completeness — every session back with its rows, epoch and baseline
// answer. (Completeness only: what survives a crash at an arbitrary point
// is the fault-injection campaign's question, not this benchmark's.)
func (pl *servePlan) restore() (seconds []float64, failed int, err error) {
	before, err := pl.states(newClient(pl.cl.front))
	if err != nil {
		return nil, 0, err
	}
	for rep := 0; rep < pl.sz.RestoreReps; rep++ {
		old := pl.cl.daemons[0]
		old.stop()
		d, took, err := startDaemon(old.conf)
		if err != nil {
			return nil, 0, err
		}
		pl.cl.daemons[0], pl.cl.front = d, d.base
		seconds = append(seconds, took.Seconds())
		after, err := pl.states(newClient(pl.cl.front))
		if err != nil {
			return nil, 0, err
		}
		if sameStates(before, after) != nil {
			failed++
		}
	}
	return seconds, failed, nil
}

// migrate runs the drain passes: empty one shard through the router's
// /migrate, verify every session, undrain, and move on to the next shard.
// It returns each pass's time per session moved.
func (pl *servePlan) migrate() (perSessionMS []float64, failed int, err error) {
	c := newClient(pl.cl.front)
	before, err := pl.states(c)
	if err != nil {
		return nil, 0, err
	}
	for pass := 0; pass < pl.sz.DrainPasses; pass++ {
		shard := fmt.Sprintf("s%d", pass%len(pl.cl.daemons))
		var resp router.MigrateResponse
		t0 := time.Now()
		if err := c.Do("POST", "/v1/shards/"+shard+"/migrate", nil, &resp); err != nil {
			return nil, 0, err
		}
		took := time.Since(t0)
		if err := c.Do("POST", "/v1/shards/"+shard+"/undrain", nil, nil); err != nil {
			return nil, 0, err
		}
		if len(resp.Failed) > 0 {
			failed += len(resp.Failed)
		}
		after, err := pl.states(c)
		if err != nil {
			return nil, 0, err
		}
		if sameStates(before, after) != nil {
			failed++
		}
		if n := len(resp.Moved); n > 0 {
			perSessionMS = append(perSessionMS, ms(took)/float64(n))
		}
	}
	return perSessionMS, failed, nil
}

// dirBytes sums the file sizes under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
