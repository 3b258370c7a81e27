package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"sirum"
	"sirum/internal/spec"
)

// The wire types of sirumd's HTTP/JSON API. Field names are snake_case on
// the wire; durations serialize as nanoseconds (time.Duration's encoding).

// GeneratorSpec asks for one of the built-in synthetic evaluation datasets.
type GeneratorSpec struct {
	Name string `json:"name"` // income|gdelt|susy|tlc|flights
	Rows int    `json:"rows,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

// PrepareSpec mirrors sirum.PrepareOptions plus substrate sizing.
type PrepareSpec struct {
	SampleSize     int     `json:"sample_size,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	Executors      int     `json:"executors,omitempty"`
	Backend        string  `json:"backend,omitempty"` // native|sim
	RemineFactor   float64 `json:"remine_factor,omitempty"`
}

// options translates the wire spec into the library's prepare options
// (also used to re-prepare journaled sessions on Restore).
func (p PrepareSpec) options() sirum.PrepareOptions {
	return sirum.PrepareOptions{
		SampleSize:     p.SampleSize,
		Seed:           p.Seed,
		SampleFraction: p.SampleFraction,
		Cluster:        sirum.Cluster{Executors: p.Executors},
		Backend:        sirum.Backend(p.Backend),
		RemineFactor:   p.RemineFactor,
	}
}

// CreateRequest registers a named prepared session from either a built-in
// generator or an inline CSV document.
type CreateRequest struct {
	// ID names the session; one is assigned when empty.
	ID string `json:"id,omitempty"`
	// Generator builds a synthetic dataset (mutually exclusive with CSV).
	Generator *GeneratorSpec `json:"generator,omitempty"`
	// CSV is a full CSV document with a header row; Measure names the
	// measure column and Ignore lists columns to drop.
	CSV     string   `json:"csv,omitempty"`
	Measure string   `json:"measure,omitempty"`
	Ignore  []string `json:"ignore,omitempty"`
	// Prepare configures the prepare-once phase.
	Prepare PrepareSpec `json:"prepare,omitempty"`
}

// sourceSpec computes the canonical identity of the dataset this request
// would create, applying the same defaults buildDataset applies — without
// materializing any rows. Validation errors match buildDataset's.
func (req CreateRequest) sourceSpec() (spec.DatasetSpec, error) {
	switch {
	case req.Generator != nil && req.CSV != "":
		return spec.DatasetSpec{}, errf(http.StatusBadRequest, "use either generator or csv, not both")
	case req.Generator != nil:
		g := *req.Generator
		if g.Rows <= 0 {
			g.Rows = 10000
		}
		if g.Seed == 0 {
			g.Seed = 1
		}
		return spec.DatasetSpec{Version: spec.Version, Generator: &spec.GeneratorSource{
			Name: g.Name, Rows: g.Rows, Seed: g.Seed,
		}}, nil
	case req.CSV != "":
		if req.Measure == "" {
			return spec.DatasetSpec{}, errf(http.StatusBadRequest, "measure is required with csv")
		}
		ignore := append([]string(nil), req.Ignore...)
		sort.Strings(ignore)
		if len(ignore) == 0 {
			ignore = nil
		}
		return spec.DatasetSpec{Version: spec.Version, CSV: &spec.CSVSource{
			SHA256:  spec.HashBytes([]byte(req.CSV)),
			Measure: req.Measure,
			Ignore:  ignore,
		}}, nil
	default:
		return spec.DatasetSpec{}, errf(http.StatusBadRequest, "one of generator or csv is required")
	}
}

// DatasetSpec is the placement hook for shard routers: the canonical source
// identity of the dataset this create request describes, computable before
// any shard has prepared it. Its fingerprint equals the one the session
// will report once prepared (generator defaults applied, CSV content
// hashed, ignore columns sorted), so consistent hashing over it places the
// session once and resolves it forever.
func (req CreateRequest) DatasetSpec() (spec.DatasetSpec, error) { return req.sourceSpec() }

// SessionInfo describes one registered session.
type SessionInfo struct {
	ID        string              `json:"id"`
	Rows      int                 `json:"rows"`
	Dims      []string            `json:"dims"`
	Measure   string              `json:"measure"`
	Queries   int64               `json:"queries"`
	CreatedAt time.Time           `json:"created_at"`
	Stats     *sirum.SessionStats `json:"stats,omitempty"`
}

// ListResponse enumerates the registered sessions.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// MineRequest carries per-query mining options; zero values get the
// library's defaults.
type MineRequest struct {
	K              int     `json:"k,omitempty"`
	SampleSize     int     `json:"sample_size,omitempty"`
	Variant        string  `json:"variant,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	SampleFraction float64 `json:"sample_fraction,omitempty"`
}

// ConditionJSON is one attribute constraint of a rule.
type ConditionJSON struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// RuleJSON is one mined rule with display aggregates.
type RuleJSON struct {
	Conditions []ConditionJSON `json:"conditions"`
	Display    string          `json:"display"`
	Avg        float64         `json:"avg"`
	Count      int64           `json:"count"`
	Gain       float64         `json:"gain,omitempty"`
}

// MineResponse reports one mining query, including the per-query metrics
// snapshot so clients see exactly what their query cost in isolation from
// concurrent traffic.
type MineResponse struct {
	Rules      []RuleJSON         `json:"rules"`
	KL         float64            `json:"kl"`
	InfoGain   float64            `json:"info_gain"`
	Iterations int                `json:"iterations"`
	WallNS     time.Duration      `json:"wall_ns"`
	Metrics    sirum.QueryMetrics `json:"metrics"`
	// Cached marks a response served from the result cache: no backend
	// work ran, and WallNS/Metrics describe the original computation.
	Cached bool `json:"cached,omitempty"`
}

// ExploreRequest carries data-cube exploration options.
type ExploreRequest struct {
	K        int   `json:"k,omitempty"`
	GroupBys int   `json:"group_bys,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

// ExploreResponse reports recommendations plus the assumed prior.
type ExploreResponse struct {
	Prior []RuleJSON `json:"prior"`
	MineResponse
}

// RowJSON is one appended tuple.
type RowJSON struct {
	Dims    []string `json:"dims"`
	Measure float64  `json:"measure"`
}

// AppendRequest folds new tuples into the session; the mining options apply
// if the maintained rule list has drifted enough to be re-mined.
type AppendRequest struct {
	Rows []RowJSON `json:"rows"`
	MineRequest
}

// AppendResponse reports one append.
type AppendResponse struct {
	Remined bool       `json:"remined"`
	Rows    int        `json:"rows"`
	KL      float64    `json:"kl"`
	Rules   []RuleJSON `json:"rules"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse reports daemon liveness and load. ShardID and Advertise
// identify the daemon within a multi-node cluster when it was started in
// shard mode; routers read them off health checks.
type HealthResponse struct {
	Status      string `json:"status"`
	ShardID     string `json:"shard_id,omitempty"`
	Advertise   string `json:"advertise,omitempty"`
	Sessions    int    `json:"sessions"`
	InFlight    int    `json:"in_flight"`
	Queued      int64  `json:"queued"`
	Queries     int64  `json:"queries"`
	Rejected    int64  `json:"rejected"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

// Client is a minimal JSON client for the sirumd API, shared by the router,
// sirumr's migrate subcommand, the benchmark and the tests. The zero HTTP
// client uses http.DefaultClient semantics with no timeout; set one for
// load runs.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// Do performs one JSON round trip: in (when non-nil) is the request body,
// out (when non-nil) receives the decoded response. Error responses decode
// the uniform ErrorResponse body into the returned error.
func (c *Client) Do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var apiErr ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s %s: %s (%d)", method, path, apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// The typed shard API: one method per endpoint, shared by the router's
// control plane, the benchmark and the tests. Data-plane request
// *forwarding* uses DoRaw instead, so a router never re-interprets bodies
// it only needs to relay.

// CreateSession registers a prepared session and returns its info.
func (c *Client) CreateSession(req CreateRequest) (SessionInfo, error) {
	var info SessionInfo
	err := c.Do("POST", "/v1/datasets", req, &info)
	return info, err
}

// ListSessions enumerates the registered sessions.
func (c *Client) ListSessions() (ListResponse, error) {
	var list ListResponse
	err := c.Do("GET", "/v1/datasets", nil, &list)
	return list, err
}

// GetSession fetches one session with lifetime stats.
func (c *Client) GetSession(id string) (SessionInfo, error) {
	var info SessionInfo
	err := c.Do("GET", "/v1/datasets/"+id, nil, &info)
	return info, err
}

// DeleteSession closes and unregisters a session.
func (c *Client) DeleteSession(id string) error {
	return c.Do("DELETE", "/v1/datasets/"+id, nil, nil)
}

// Mine runs one mining query against a session.
func (c *Client) Mine(id string, req MineRequest) (MineResponse, error) {
	var resp MineResponse
	err := c.Do("POST", "/v1/datasets/"+id+"/mine", req, &resp)
	return resp, err
}

// Explore runs one data-cube exploration query against a session.
func (c *Client) Explore(id string, req ExploreRequest) (ExploreResponse, error) {
	var resp ExploreResponse
	err := c.Do("POST", "/v1/datasets/"+id+"/explore", req, &resp)
	return resp, err
}

// AppendRows folds new tuples into a session.
func (c *Client) AppendRows(id string, req AppendRequest) (AppendResponse, error) {
	var resp AppendResponse
	err := c.Do("POST", "/v1/datasets/"+id+"/append", req, &resp)
	return resp, err
}

// Export fetches a session's migration document: its journaled identity
// plus the fingerprint/epoch/chain header an importer must reproduce.
func (c *Client) Export(id string) (ExportDocument, error) {
	var doc ExportDocument
	err := c.Do("GET", "/v1/datasets/"+id+"/export", nil, &doc)
	return doc, err
}

// Import rebuilds an exported session on the target daemon and returns its
// info (stats included, so callers can verify fingerprint and epoch).
func (c *Client) Import(doc ExportDocument) (SessionInfo, error) {
	var info SessionInfo
	err := c.Do("POST", "/v1/datasets/import", doc, &info)
	return info, err
}

// Health fetches the daemon's liveness and load counters.
func (c *Client) Health() (HealthResponse, error) {
	var resp HealthResponse
	err := c.Do("GET", "/v1/healthz", nil, &resp)
	return resp, err
}

// MetricsText fetches the Prometheus-style metrics document.
func (c *Client) MetricsText() (string, error) {
	raw, err := c.DoRaw("GET", "/v1/metrics", "", nil)
	if err != nil {
		return "", err
	}
	if raw.Status != http.StatusOK {
		return "", fmt.Errorf("GET /v1/metrics: status %d", raw.Status)
	}
	return string(raw.Body), nil
}

// RawResponse is one un-decoded HTTP exchange result: what a proxy relays.
type RawResponse struct {
	Status      int
	ContentType string
	Body        []byte
}

// DoRaw performs one round trip without interpreting the response: any HTTP
// status comes back as a RawResponse for the caller to relay verbatim, and
// the returned error is reserved for transport failures — the signal a
// router uses to mark a shard down.
func (c *Client) DoRaw(method, path, contentType string, body []byte) (*RawResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &RawResponse{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        buf,
	}, nil
}

// StreamResponse is one in-flight HTTP exchange: status and content type are
// final, the body streams straight from the server. The caller owns Body and
// must Close it.
type StreamResponse struct {
	Status      int
	ContentType string
	Body        io.ReadCloser
}

// DoStream performs one round trip without buffering either direction: body
// (when non-nil) streams to the server, and the response body streams back
// to the caller. Like DoRaw, any HTTP status is returned as a response and
// the error is reserved for transport failures. Content length may be passed
// via length (use -1 when unknown) so fixed-size relays avoid chunked
// encoding.
func (c *Client) DoStream(method, path, contentType string, body io.Reader, length int64) (*StreamResponse, error) {
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil && length >= 0 {
		req.ContentLength = length
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	return &StreamResponse{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        resp.Body,
	}, nil
}
