// Package server implements sirumd: an HTTP/JSON daemon serving informative
// rule mining over a registry of named prepared sessions. The paper frames
// SIRUM as an interactive tool — an analyst repeatedly asks for the K most
// informative rules under evolving priors — so the daemon holds each dataset
// prepared once (loaded, partitioned, sampled, indexed) and answers many
// cheap per-query passes against it, concurrently.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/datasets            create a prepared session (generator or CSV)
//	GET    /v1/datasets            list sessions
//	GET    /v1/datasets/{id}       one session with lifetime stats
//	DELETE /v1/datasets/{id}       close and unregister a session
//	POST   /v1/datasets/{id}/mine     one mining query
//	POST   /v1/datasets/{id}/explore  one data-cube exploration query
//	POST   /v1/datasets/{id}/append   fold new rows in, refit/re-mine
//	GET    /v1/metrics             Prometheus-style text metrics
//	GET    /v1/healthz             liveness and load counters
//
// Every session and query has a canonical identity (internal/spec): the
// dataset's source fingerprint plus an epoch bumped by each Append, the
// prep fingerprint, and the normalized query fingerprint. Identical repeat
// queries are answered from a size-bounded LRU keyed by that triple —
// consulted before admission, so hits skip the semaphore and do no backend
// work — and Append invalidates for free by bumping the epoch. With
// Config.SnapshotDir set, the registry is journaled (spec-encoded) on
// create/append/delete and Restore re-prepares it on boot.
//
// An admission-control semaphore bounds the queries executing at once;
// excess requests queue until a slot frees or their context is cancelled.
// Close drains in-flight queries before tearing sessions down.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sirum"
	"sirum/internal/spec"
)

// Config sizes the daemon.
type Config struct {
	// MaxInFlight bounds the units of heavy work executing at once —
	// mine/explore/append queries and session preparation (default
	// 2 × GOMAXPROCS). Requests beyond it queue; they fail with 503 only
	// when their context is cancelled while waiting.
	MaxInFlight int
	// MaxBodyBytes caps a request body (default DefaultMaxBodyBytes) so one
	// oversized CSV or row batch cannot exhaust memory before validation.
	MaxBodyBytes int64
	// CacheEntries bounds the result cache: how many recent query
	// responses are retained for exact-repeat traffic (default 256;
	// negative disables caching).
	CacheEntries int
	// SnapshotDir enables session persistence: the registry is journaled
	// here on create/append/delete, and Restore re-prepares it on boot.
	// Empty disables persistence.
	SnapshotDir string
	// NoFsync skips the fsync the snapshotter otherwise issues before
	// acknowledging a create or append. Durability then only covers process
	// crashes, not power loss — acceptable for tests and benchmarks, not
	// for production journals.
	NoFsync bool
	// ShardID names this daemon within a multi-node cluster; it is reported
	// in /v1/healthz and /v1/metrics so a router can label the shard by its
	// logical identity rather than its address. Empty for standalone daemons.
	ShardID string
	// Advertise is the address other nodes should reach this daemon at
	// (routers dial it; it may differ from the listen address behind NAT or
	// port mapping). Reported alongside ShardID.
	Advertise string
}

// DefaultMaxBodyBytes is a daemon's request body cap unless
// Config.MaxBodyBytes sets another, and every router's cap.
const DefaultMaxBodyBytes = 64 << 20

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	return c
}

// validSessionID bounds ids to a path- and label-safe alphabet: they name
// snapshot files and metric labels, not just map keys.
var validSessionID = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`).MatchString

// ValidSessionID reports whether id is acceptable as a session name: 1-64
// chars of [A-Za-z0-9._-], starting alphanumeric. Routers apply the same
// rule before placing a create, so an invalid id is rejected without a hop.
func ValidSessionID(id string) bool { return validSessionID(id) }

// Server is the daemon state: the session registry, the result cache and
// admission control. Create with New, optionally Restore from a snapshot
// directory, serve via Handler, tear down with Close.
type Server struct {
	conf    Config
	mux     *http.ServeMux
	sem     chan struct{} // admission: one slot per executing query
	cache   *resultCache  // nil when caching is disabled
	snap    *snapshotter  // nil when persistence is disabled or broken
	snapErr error         // why snap is nil despite SnapshotDir being set

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	closed   bool

	inflight sync.WaitGroup // queries admitted but not yet finished
	queries  atomic.Int64   // queries admitted to execute (including failed ones)
	rejected atomic.Int64   // queries turned away at admission
	queued   atomic.Int64   // queries waiting for an admission slot right now
}

// storeMax raises v to n monotonically: appends only grow a session, and
// handlers may reach their post-Append store out of order.
func storeMax(v *atomic.Int64, n int64) {
	for {
		cur := v.Load()
		if n <= cur || v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// session is one registry entry: a prepared mining session plus bookkeeping.
type session struct {
	id      string
	ds      *sirum.Dataset // creation-time dataset; the schema never changes
	p       *sirum.Prepared
	key     [32]byte // session cache identity: H(dataset source fp ‖ prep fp)
	created time.Time
	queries atomic.Int64
	rows    atomic.Int64 // cached row count, so listings never wait behind a long Append holding the session lock
	// journalMu orders append-journal records with their application, so
	// the on-disk replay sequence matches the in-memory one; dropped
	// (guarded by it) stops an in-flight append from resurrecting the
	// journal of a session deleted under it. The manifest/csv/appends
	// trio (also guarded by it after registration) mirrors the on-disk
	// journal in memory: it is the session's portable identity, what
	// /export serializes — kept even when persistence is off.
	journalMu sync.Mutex
	dropped   bool
	m         manifest
	csv       string
	appends   []appendRecord
}

// New builds a server with an empty session registry. When
// Config.SnapshotDir is set, call Restore before serving to bring
// journaled sessions back.
func New(conf Config) *Server {
	conf = conf.withDefaults()
	s := &Server{
		conf:     conf,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, conf.MaxInFlight),
		sessions: make(map[string]*session),
	}
	if conf.CacheEntries > 0 {
		s.cache = newResultCache(conf.CacheEntries)
	}
	if conf.SnapshotDir != "" {
		// A broken directory must not silently disable persistence: the
		// error is kept and returned by Restore and by every handler that
		// would have journaled (see persistence()).
		s.snap, s.snapErr = newSnapshotter(conf.SnapshotDir, !conf.NoFsync)
	}
	s.mux.HandleFunc("POST /v1/datasets", s.wrap(s.handleCreate))
	s.mux.HandleFunc("GET /v1/datasets", s.wrap(s.handleList))
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.wrap(s.handleGet))
	s.mux.HandleFunc("DELETE /v1/datasets/{id}", s.wrap(s.handleDelete))
	s.mux.HandleFunc("POST /v1/datasets/{id}/mine", s.wrap(s.handleMine))
	s.mux.HandleFunc("POST /v1/datasets/{id}/explore", s.wrap(s.handleExplore))
	s.mux.HandleFunc("POST /v1/datasets/{id}/append", s.wrap(s.handleAppend))
	s.mux.HandleFunc("GET /v1/datasets/{id}/export", s.wrap(s.handleExport))
	s.mux.HandleFunc("POST /v1/datasets/import", s.wrap(s.handleImport))
	s.mux.HandleFunc("GET /v1/metrics", s.wrap(s.handleMetrics))
	s.mux.HandleFunc("GET /v1/healthz", s.wrap(s.handleHealth))
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Restore re-prepares every session journaled in Config.SnapshotDir:
// generator sources are regenerated from their spec, CSV sources re-read
// from their spill, and appended batches replayed in order, so the
// restored session reaches the same rows and epoch it had when the journal
// was written. Returns how many sessions came back. A nil error with 0
// sessions is a cold start.
func (s *Server) Restore() (int, error) {
	if s.conf.SnapshotDir == "" {
		return 0, nil
	}
	if s.snap == nil {
		return 0, fmt.Errorf("snapshot directory %q is unusable: %v", s.conf.SnapshotDir, s.snapErr)
	}
	entries, err := s.snap.load()
	if err != nil {
		return 0, err
	}
	for i, e := range entries {
		if err := s.restoreSession(e); err != nil {
			return i, fmt.Errorf("restoring session %q: %w", e.m.ID, err)
		}
	}
	return len(entries), nil
}

func (s *Server) restoreSession(e snapshotEntry) error {
	ds, p, err := s.rebuildSession(e)
	if err != nil {
		return err
	}
	if _, err := s.addSession(e.m.ID, ds, p, e); err != nil {
		p.Close()
		return err
	}
	return nil
}

// rebuildSession materializes a journaled session: the dataset built from
// its manifest source, prepared, and every journaled append replayed in
// order. This is the one replay path — Restore and /import both use it —
// so a rebuilt session reaches exactly the rows, epoch and content chain
// the journal describes, which is what makes import verification by
// fingerprint trustworthy.
func (s *Server) rebuildSession(e snapshotEntry) (*sirum.Dataset, *sirum.Prepared, error) {
	ds, err := buildDataset(CreateRequest{
		Generator: e.m.Generator,
		CSV:       e.csv,
		Measure:   e.m.Measure,
		Ignore:    e.m.Ignore,
	})
	if err != nil {
		return nil, nil, err
	}
	p, err := ds.Prepare(e.m.Prepare.options())
	if err != nil {
		return nil, nil, err
	}
	for i, rec := range e.appends {
		batch, err := buildBatch(ds, rec.Rows)
		if err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("replaying append %d: %w", i, err)
		}
		if _, err := p.Append(batch, rec.Mine.options()); err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("replaying append %d: %w", i, err)
		}
	}
	return ds, p, nil
}

// Close drains in-flight queries, then closes and unregisters every session.
// New work is rejected from the moment Close is called. Snapshot journals
// are left in place — surviving restarts is their whole point. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	drain := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		drain = append(drain, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()

	// Graceful shutdown: every admitted query finishes against its session
	// before any Prepared.Close tears the substrate down.
	s.inflight.Wait()
	var firstErr error
	for _, sess := range drain {
		if err := sess.p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// apiError carries an HTTP status with a message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// mapError classifies an error into an HTTP status: explicit apiErrors keep
// theirs; library validation errors (the "sirum:"/"miner:"/"explore:"/
// "rule:" prefixes — bad variant, foreign backend, mismatched schema or
// sample options, a generalization blow-up over a too-wide schema) are the
// caller's fault; anything else — including a "cube:" corrupt-key error,
// which indicates pipeline state corruption rather than caller input — is
// internal.
func mapError(err error) (int, string) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ae.msg
	}
	msg := err.Error()
	if strings.Contains(msg, "session is closed") {
		return http.StatusConflict, msg
	}
	for _, prefix := range []string{"sirum:", "miner:", "explore:", "dataset:", "datagen:", "rule:"} {
		if strings.HasPrefix(msg, prefix) {
			return http.StatusBadRequest, msg
		}
	}
	return http.StatusInternalServerError, msg
}

// wrap adapts an error-returning handler to http.HandlerFunc with uniform
// JSON error mapping.
func (s *Server) wrap(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			status, msg := mapError(err)
			writeJSON(w, status, ErrorResponse{Error: msg})
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//sirum:allow pinnedencode control-plane envelope only (errors, listings, health); result bodies stream via writeOpenBody
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.conf.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errf(http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
		}
		return errf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// admit takes one admission slot, queueing while the semaphore is full.
// The returned release must be called when the query finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errf(http.StatusServiceUnavailable, "server is shutting down")
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.queries.Add(1)
		return func() {
			<-s.sem
			s.inflight.Done()
		}, nil
	case <-ctx.Done():
		s.inflight.Done()
		s.rejected.Add(1)
		return nil, errf(http.StatusServiceUnavailable, "query queue full: %v", ctx.Err())
	}
}

// lookup resolves a session id.
func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", id)
	}
	return sess, nil
}

// persistence returns the snapshotter when journaling is enabled, nil
// when it never was, and an error when SnapshotDir is set but the
// directory is unusable — silently serving non-durable sessions would be
// worse than failing the request.
func (s *Server) persistence() (*snapshotter, error) {
	if s.conf.SnapshotDir == "" {
		return nil, nil
	}
	if s.snap == nil {
		return nil, errf(http.StatusInternalServerError, "session persistence unavailable: %v", s.snapErr)
	}
	return s.snap, nil
}

// cacheGet consults the result cache; the caller computed key from the
// session's canonical specs. Misses and hits are counted inside the cache.
func (s *Server) cacheGet(key cacheKey) (any, bool) {
	if s.cache == nil {
		return nil, false
	}
	return s.cache.get(key)
}

// cachePut inserts a computed response unless an Append raced the query:
// a result is only cacheable when the content chain it was keyed at still
// stands after execution, otherwise it belongs to no single dataset state.
func (s *Server) cachePut(sess *session, key cacheKey, v any) {
	if s.cache == nil || sess.p.DatasetSpec().Chain != key.chain {
		return
	}
	s.cache.put(key, v)
}

// buildDataset materializes the data source of a create request (also used
// verbatim to rebuild journaled sessions on Restore, which is what keeps
// restored fingerprints identical to the originals). It normalizes through
// sourceSpec, so the dataset a shard builds carries exactly the identity a
// router computed when it placed the request.
func buildDataset(req CreateRequest) (*sirum.Dataset, error) {
	src, err := req.sourceSpec()
	if err != nil {
		return nil, err
	}
	if src.Generator != nil {
		return sirum.Generate(src.Generator.Name, src.Generator.Rows, src.Generator.Seed)
	}
	return sirum.ReadCSV(strings.NewReader(req.CSV), req.Measure, req.Ignore...)
}

// buildBatch assembles an append batch against a session's schema.
func buildBatch(ds *sirum.Dataset, rows []RowJSON) (*sirum.Dataset, error) {
	if len(rows) == 0 {
		return nil, errf(http.StatusBadRequest, "rows is required")
	}
	b := sirum.NewBuilder(ds.DimNames(), ds.MeasureName())
	for i, row := range rows {
		if err := b.Add(row.Dims, row.Measure); err != nil {
			return nil, errf(http.StatusBadRequest, "row %d: %v", i, err)
		}
	}
	batch, err := b.Build()
	if err != nil {
		return nil, errf(http.StatusBadRequest, "building batch: %v", err)
	}
	return batch, nil
}

// addSession installs a prepared session in the registry under id (one is
// assigned when empty), deriving its cache identity from the canonical
// specs. e carries the session's journaled identity (manifest, CSV spill,
// replayed appends); the manifest's ID and CSVFile are normalized here so
// auto-assigned ids journal correctly. The caller owns p until addSession
// succeeds.
func (s *Server) addSession(id string, ds *sirum.Dataset, p *sirum.Prepared, e snapshotEntry) (*session, error) {
	key := spec.SessionKey(p.DatasetSpec(), p.PrepSpec())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errf(http.StatusServiceUnavailable, "server is shutting down")
	}
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("d%d", s.nextID)
			if _, exists := s.sessions[id]; !exists {
				break
			}
		}
	} else if _, exists := s.sessions[id]; exists {
		return nil, errf(http.StatusConflict, "dataset %q already exists", id)
	}
	e.m.ID = id
	e.m.CSVFile = ""
	if e.csv != "" {
		e.m.CSVFile = id + ".csv"
	}
	sess := &session{id: id, ds: ds, p: p, key: key, created: e.m.CreatedAt,
		m: e.m, csv: e.csv, appends: e.appends}
	sess.rows.Store(int64(p.NumRows()))
	s.sessions[id] = sess
	return sess, nil
}

// dropSession removes id from the registry and closes it, deleting its
// snapshot journal. Used by DELETE and by create rollback.
func (s *Server) dropSession(id string) (bool, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	// Mark the session dropped before removing its journal files: an
	// append already past lookup waits on journalMu, sees the flag, and
	// refuses — so no journal write can land after the files are deleted
	// and attach a dead session's rows to a future same-id session.
	sess.journalMu.Lock()
	sess.dropped = true
	sess.journalMu.Unlock()
	if s.snap != nil {
		s.snap.delete(id)
	}
	// Prepared.Close blocks until queries already holding the session's
	// read-lock finish, so deletion drains naturally.
	return true, sess.p.Close()
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) error {
	var req CreateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	if req.ID != "" && !validSessionID(req.ID) {
		return errf(http.StatusBadRequest, "session id %q: want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric", req.ID)
	}
	// Preparation is the heaviest work the daemon does (load, partition,
	// sample, index); it takes an admission slot like any query so a burst
	// of creates cannot starve admitted traffic.
	release, err := s.admit(r.Context())
	if err != nil {
		return err
	}
	defer release()
	ds, err := buildDataset(req)
	if err != nil {
		return err
	}
	p, err := ds.Prepare(req.Prepare.options())
	if err != nil {
		return err
	}
	snap, err := s.persistence()
	if err != nil {
		p.Close()
		return err
	}
	sess, err := s.addSession(req.ID, ds, p, snapshotEntry{m: manifest{
		CreatedAt: time.Now(),
		Generator: req.Generator,
		Measure:   req.Measure,
		Ignore:    req.Ignore,
		Prepare:   req.Prepare,
	}, csv: req.CSV})
	if err != nil {
		p.Close()
		return err
	}
	if snap != nil {
		if err := s.journalSession(snap, sess); err != nil {
			s.dropSession(sess.id)
			return errf(http.StatusInternalServerError, "journaling session: %v", err)
		}
	}
	writeJSON(w, http.StatusCreated, s.info(sess, false))
	return nil
}

// journalSession persists a just-registered session — manifest, CSV spill
// and any append records it already carries — under its journal lock:
// save clears the append journal file, so an append racing in between
// registration and save would otherwise have its record silently dropped.
func (s *Server) journalSession(snap *snapshotter, sess *session) error {
	sess.journalMu.Lock()
	defer sess.journalMu.Unlock()
	if sess.dropped {
		return fmt.Errorf("session %q was deleted", sess.id)
	}
	if err := snap.save(sess.m, sess.csv); err != nil {
		return err
	}
	for _, rec := range sess.appends {
		if err := snap.appendBatch(sess.id, rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) info(sess *session, withStats bool) SessionInfo {
	inf := SessionInfo{
		ID:        sess.id,
		Rows:      int(sess.rows.Load()),
		Dims:      sess.ds.DimNames(),
		Measure:   sess.ds.MeasureName(),
		Queries:   sess.queries.Load(),
		CreatedAt: sess.created,
	}
	if withStats {
		st := sess.p.Stats()
		inf.Stats = &st
	}
	return inf
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	sessions := s.snapshotSessions()
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(sessions))}
	for _, sess := range sessions {
		resp.Sessions = append(resp.Sessions, s.info(sess, false))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// snapshotSessions copies the registry out from under the lock.
func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	return sessions
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, s.info(sess, true))
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	ok, err := s.dropSession(id)
	if !ok {
		return errf(http.StatusNotFound, "unknown dataset %q", id)
	}
	if err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (req MineRequest) options() sirum.Options {
	return sirum.Options{
		K:              req.K,
		SampleSize:     req.SampleSize,
		Variant:        sirum.Variant(req.Variant),
		Epsilon:        req.Epsilon,
		Seed:           req.Seed,
		SampleFraction: req.SampleFraction,
	}
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	var req MineRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	opts := req.options()
	dsSpec, qSpec, err := sess.p.MineSpec(opts)
	if err != nil {
		return err
	}
	key := cacheKey{session: sess.key, chain: dsSpec.Chain, query: qSpec.Fingerprint()}
	if v, ok := s.cacheGet(key); ok {
		sess.queries.Add(1)
		writeOpenBody(w, http.StatusOK, v.([]byte), true)
		return nil
	}
	release, err := s.admit(r.Context())
	if err != nil {
		return err
	}
	defer release()
	sess.queries.Add(1)
	res, err := sess.p.Mine(opts)
	if err != nil {
		return err
	}
	body, err := appendMineOpen(res)
	if err != nil {
		return err
	}
	s.cachePut(sess, key, body)
	writeOpenBody(w, http.StatusOK, body, false)
	return nil
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	var req ExploreRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	opts := sirum.ExploreOptions{K: req.K, GroupBys: req.GroupBys, Seed: req.Seed}
	dsSpec, qSpec := sess.p.ExploreSpec(opts)
	key := cacheKey{session: sess.key, chain: dsSpec.Chain, query: qSpec.Fingerprint()}
	if v, ok := s.cacheGet(key); ok {
		sess.queries.Add(1)
		writeOpenBody(w, http.StatusOK, v.([]byte), true)
		return nil
	}
	release, err := s.admit(r.Context())
	if err != nil {
		return err
	}
	defer release()
	sess.queries.Add(1)
	res, err := sess.p.Explore(opts)
	if err != nil {
		return err
	}
	body, err := appendExploreOpen(res.Prior, res.Result)
	if err != nil {
		return err
	}
	s.cachePut(sess, key, body)
	writeOpenBody(w, http.StatusOK, body, false)
	return nil
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	var req AppendRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	batch, err := buildBatch(sess.ds, req.Rows)
	if err != nil {
		return err
	}
	snap, err := s.persistence()
	if err != nil {
		return err
	}
	release, err := s.admit(r.Context())
	if err != nil {
		return err
	}
	defer release()
	sess.queries.Add(1)
	// journalMu spans the append and its journal record so the on-disk
	// order always matches the applied order.
	sess.journalMu.Lock()
	if sess.dropped {
		sess.journalMu.Unlock()
		return errf(http.StatusConflict, "dataset %q was deleted", sess.id)
	}
	res, err := sess.p.Append(batch, req.options())
	if err == nil {
		rec := appendRecord{Rows: req.Rows, Mine: req.MineRequest}
		sess.appends = append(sess.appends, rec)
		if snap != nil {
			if jerr := snap.appendBatch(sess.id, rec); jerr != nil {
				// The append is applied in memory but not durable; tell the
				// client rather than silently diverging from the journal.
				err = errf(http.StatusInternalServerError, "append applied but not journaled: %v", jerr)
			}
		}
	}
	sess.journalMu.Unlock()
	if err != nil {
		return err
	}
	storeMax(&sess.rows, int64(res.Rows))
	writeOpenBody(w, http.StatusOK, appendAppendOpen(res), false)
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	resp := HealthResponse{
		Status:    "ok",
		ShardID:   s.conf.ShardID,
		Advertise: s.conf.Advertise,
		Sessions:  n,
		InFlight:  len(s.sem),
		Queued:    s.queued.Load(),
		Queries:   s.queries.Load(),
		Rejected:  s.rejected.Load(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		resp.CacheHits = cs.hits
		resp.CacheMisses = cs.misses
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
