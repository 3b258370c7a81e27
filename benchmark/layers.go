package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sirum/internal/metrics"
	"sirum/internal/router"
	"sirum/internal/server"
	"sirum/internal/spec"
)

// Per-layer metrics of a traced pass. Nothing inside the program is
// instrumented by this benchmark: a layer's numbers come from what the
// public API already reports about a query (Result.Metrics phases and
// counters, wall_ns, cached), from the serving endpoints (/v1/healthz,
// /v1/metrics, /v1/shards), from timing calls around a layer's public
// functions (probes.go), and from the process itself.

// layerAgg sums what a set of ops reported about themselves.
type layerAgg struct {
	ops      int
	phases   map[string]float64 // ns
	counters map[string]float64
	compute  float64 // ns, the program's own wall for the answers
	latency  float64 // ns, as the caller saw them
}

func aggregate(samples []sample, keep func(*sample) bool) layerAgg {
	a := layerAgg{phases: make(map[string]float64), counters: make(map[string]float64)}
	for i := range samples {
		s := &samples[i]
		if s.err != nil || !keep(s) {
			continue
		}
		a.ops++
		a.compute += float64(s.compute)
		a.latency += float64(s.done.Sub(s.sent))
		for k, v := range s.metrics.Phases {
			a.phases[k] += float64(v)
		}
		for k, v := range s.metrics.Counters {
			a.counters[k] += float64(v)
		}
	}
	return a
}

func (a layerAgg) phaseMS(name string) float64 { return a.phases[name] / 1e6 / float64(max(a.ops, 1)) }
func (a layerAgg) counter(name string) float64 { return a.counters[name] / float64(max(a.ops, 1)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxProbeRows caps the cut of the workload's dataset the probes run on, so
// that a probe is milliseconds whatever the workload's size.
const maxProbeRows = 10000

// leafPhases are the miner's non-overlapping phases (rule_generation is the
// sum of three of them and is left out); what an op's own wall time exceeds
// them by is the miner's self time.
var leafPhases = []string{metrics.PhaseCandPruning, metrics.PhaseAncestorGen, metrics.PhaseGainComputing,
	metrics.PhaseScaling, metrics.PhaseRuleSelection, metrics.PhaseWriteback, metrics.PhaseDataLoad}

// perLayer computes every per-layer metric of the traced pass, plus the
// shares that show the workload stresses what it was built to stress.
func (p *pass) perLayer() (out, shares map[string]float64, err error) {
	out = make(map[string]float64)
	computed := func(s *sample) bool { return s.class != classHit && s.class != classAppend }
	q := aggregate(p.samples, computed)

	out["candgen.pruning_ms_per_op"] = q.phaseMS(metrics.PhaseCandPruning)
	out["candgen.lca_comparisons_per_op"] = q.counter(metrics.CtrLCAComparisons)
	out["candgen.candidates_per_op"] = q.counter(metrics.CtrCandidates)
	out["cube.ancestor_ms_per_op"] = q.phaseMS(metrics.PhaseAncestorGen)
	out["cube.pairs_emitted_per_op"] = q.counter(metrics.CtrPairsEmitted)
	out["cube.ns_per_pair"] = ratio(q.phases[metrics.PhaseAncestorGen], q.counters[metrics.CtrPairsEmitted])
	out["engine.tasks_per_op"] = q.counter(metrics.CtrTasks)
	out["engine.stages_per_op"] = q.counter(metrics.CtrStages)
	out["engine.shuffle_records_per_op"] = q.counter(metrics.CtrShuffleRecords)
	out["engine.shuffle_bytes_per_op"] = q.counter(metrics.CtrShuffleBytes)
	out["engine.scan_rows_per_op"] = q.counter(metrics.CtrScanRows)
	out["engine.scratch_reuse_ratio"] = ratio(q.counters[metrics.CtrScratchReuses], q.counters[metrics.CtrScratchBorrows])
	out["maxent.scaling_ms_per_op"] = q.phaseMS(metrics.PhaseScaling)
	out["maxent.scaling_loops_per_op"] = q.counter(metrics.CtrScalingLoops)
	out["maxent.gain_ms_per_op"] = q.phaseMS(metrics.PhaseGainComputing)
	out["miner.selection_ms_per_op"] = q.phaseMS(metrics.PhaseRuleSelection)
	out["miner.writeback_ms_per_op"] = q.phaseMS(metrics.PhaseWriteback)
	var inPhases float64
	for _, name := range leafPhases {
		inPhases += q.phases[name]
	}
	out["miner.self_ms_per_op"] = (q.compute - inPhases) / 1e6 / float64(max(q.ops, 1))
	for kind, name := range map[string]string{"/memo/": "miner.memo_op_ms", "/fresh/": "miner.fresh_op_ms"} {
		a := aggregate(p.samples, func(s *sample) bool { return strings.Contains(s.stratum, kind) })
		out[name] = a.latency / 1e6 / float64(max(a.ops, 1))
	}

	// explore: what Explore adds around the mining run it wraps (deriving
	// the prior, describing it against the data). Only the library sees it:
	// over HTTP the call boundary is the request.
	ex := aggregate(p.samples, func(s *sample) bool { return s.class == classExplore || s.class == classPrior })
	out["explore.self_ms_per_op"], out["explore.prior_rules"] = 0, 0
	if ex.ops > 0 {
		if p.lib != nil {
			out["explore.self_ms_per_op"] = (ex.latency - ex.compute) / 1e6 / float64(ex.ops)
		}
		var priors float64
		for i := range p.samples {
			if s := &p.samples[i]; s.err == nil && (s.class == classExplore || s.class == classPrior) {
				priors += float64(len(s.prior))
			}
		}
		out["explore.prior_rules"] = priors / float64(ex.ops)
	}

	var latencies []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.err == nil {
			latencies = append(latencies, ms(s.latency()))
		}
	}
	pct, hi := highPercentile(latencies)
	out["sirum.op_hi_pct_ms"] = hi
	if pct > 0 {
		fmt.Printf("%s: op latency p50 %.4g ms, p%g %.4g ms over %d ops (the highest percentile with ten samples beyond it)\n",
			p.name, median(latencies), pct, hi, len(latencies))
	} else {
		fmt.Printf("%s: op latency p50 %.4g ms over %d ops (too few for any higher percentile to have ten samples beyond it)\n",
			p.name, median(latencies), len(latencies))
	}

	for k, v := range processMetrics(p.proc[0], p.proc[1], len(p.samples)) {
		out[k] = v
	}
	out["trace.overhead_pct"] = 100 * ratio(float64(p.traceSpent), float64(p.proc[1].at.Sub(p.proc[0].at)))

	// Probes, on this workload's own data.
	pr := &prober{rec: p.rec, parent: p.root, out: out}
	in := p.probeInputs()
	if len(in.t.rows) > maxProbeRows {
		in.t = in.t.slice(0, maxProbeRows)
	}
	if err := layerProbes(pr, in, p.sz); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := sessionProbes(pr, in.t, p.probeBatches(), in.sampleSize); err != nil {
		return nil, nil, fmt.Errorf("session probes: %w", err)
	}
	if out["engine.parallel_speedup"], err = p.parallelSpeedup(); err != nil {
		return nil, nil, fmt.Errorf("parallel speed-up: %w", err)
	}
	if err := p.servingLayers(out); err != nil {
		return nil, nil, fmt.Errorf("serving layers: %w", err)
	}

	// Shares: does the workload stress what it was built for?
	shares = make(map[string]float64)
	share := func(name, phase string, keep func(*sample) bool) {
		if a := aggregate(p.samples, keep); a.ops > 0 {
			shares[name] = ratio(a.phases[phase], a.latency)
		}
	}
	share("cube_of_light_explore", metrics.PhaseAncestorGen, func(s *sample) bool { return s.class == classExplore })
	share("candgen_pruning_of_fresh_mine", metrics.PhaseCandPruning, func(s *sample) bool { return strings.Contains(s.stratum, "/fresh/") })
	share("cube_of_memo_mine", metrics.PhaseAncestorGen, func(s *sample) bool { return strings.Contains(s.stratum, "/memo/") })
	share("maxent_scaling_of_prior_explore", metrics.PhaseScaling, func(s *sample) bool { return s.class == classPrior })
	if hits := aggregate(p.samples, func(s *sample) bool { return s.class == classHit }); hits.ops > 0 {
		// A hit runs no query: all of its latency is server and transport.
		shares["server_and_transport_of_hit"] = 1
	}
	return out, shares, nil
}

// probeInput is what the probes run on.
type probeInput struct {
	t           *table
	generate    func() // regenerates t from its source, for dataset.generate_ms
	sampled     bool   // the workload prunes candidates with a sample (else explores exhaustively)
	priorGroups int    // group-bys of the prior the scaler probe adds
	sampleSize  int
}

// probeInputs picks the dataset the probes are cut from: the workload's
// first session (the mined one, for wide) or a serving session's base data.
func (p *pass) probeInputs() probeInput {
	sz := p.sz
	income := func(rows int) func() { return func() { incomeTable(rows, sz.GenSeed) } }
	switch p.name {
	case "mine":
		return probeInput{p.lib.sessions[0].t, income(min(sz.MineRows, maxProbeRows)), true, sz.PriorGroups, sz.SampleSize}
	case "explore":
		return probeInput{p.lib.sessions[0].t, income(sz.ExploreRows), false, sz.PriorGroups, sz.SampleSize}
	case "wide":
		// Nine group-bys of a 255-value domain would be a 1500-rule prior;
		// the three small dimensions are the prior an analyst would hold.
		return probeInput{p.lib.sessions[0].t, func() { wideTable(maxProbeRows, sz.WideDomains, sz.GenSeed) }, true, 3, sz.SampleSize}
	}
	return probeInput{p.srv.oracle[0].tables[0], func() { sessionTable(0, sz) }, true, sz.ServeDims, sz.ServeSample}
}

// probeBatches are the append batches the session probe folds in: the
// serving workloads' own, or for library workloads the same kind of batch
// cut for their dataset's schema (income only; wide has no batch source).
func (p *pass) probeBatches() []*table {
	if p.srv != nil {
		return p.srv.batches[0]
	}
	if p.name == "wide" {
		return nil
	}
	return appendBatches(1, 0, 7, len(p.lib.sessions[0].t.dimNames), p.sz)
}

// parallelSpeedup repeats a few computed ops at the run's GOMAXPROCS and at
// GOMAXPROCS=1 and returns the ratio of the times: what the engine's
// scheduler buys on this box.
func (p *pass) parallelSpeedup() (float64, error) {
	fresh := int64(1000) // serving: seeds no schedule uses, so every request is computed
	repeat := func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < p.sz.SpeedupOps; i++ {
			if p.lib != nil {
				if s := p.lib.call(p.lib.op(i)); s.err != nil {
					return 0, s.err
				}
				continue
			}
			req := mineRequest(1, p.sz)
			req.Seed, fresh = fresh, fresh+1
			if _, err := newClient(p.srv.cl.front).Mine(p.srv.ids[0], req); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	many, err := repeat()
	if err != nil {
		return 0, err
	}
	prev := runtime.GOMAXPROCS(1)
	one, err := repeat()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return 0, err
	}
	return ratio(float64(one), float64(many)), nil
}

var servingLayerNames = []string{
	"server.overhead_ms_per_miss", "server.handler_hit_us", "server.append_overhead_ms", "server.response_bytes_per_op",
	"server.cache_hit_ratio", "server.cache_evictions", "server.queries_admitted", "server.rejected_total",
	"server.queued_max", "server.conn_wait_ms_mean", "server.journal_bytes_per_row", "server.create_ms",
	"server.restore_ms_per_session", "router.hop_ms", "router.place_ns", "router.proxied_total",
	"router.proxy_errors_total", "router.balance_max_over_mean", "router.migrate_ms_per_session",
	"router.export_bytes_per_session", "loadgen.late_ms_p50",
}

var metricLine = regexp.MustCompile(`(?m)^(\w+)(?:\{[^}]*\})? (\S+)$`)

// sumMetric adds up every sample of a family in a Prometheus text document.
func sumMetric(doc, family string) float64 {
	var total float64
	for _, m := range metricLine.FindAllStringSubmatch(doc, -1) {
		if m[1] == family {
			v, _ := strconv.ParseFloat(m[2], 64)
			total += v
		}
	}
	return total
}

// servingLayers fills the server.*, router.* and loadgen.* metrics; on a
// library workload, which has neither server nor router, they read 0.
func (p *pass) servingLayers(out map[string]float64) error {
	for _, name := range servingLayerNames {
		out[name] = 0
	}
	if p.srv == nil {
		return nil
	}
	pl := p.srv
	var appendHTTP, bytes []float64
	for i := range p.samples {
		s := &p.samples[i]
		if s.err != nil {
			continue
		}
		bytes = append(bytes, float64(s.bytes))
		if s.class == classAppend {
			appendHTTP = append(appendHTTP, ms(s.done.Sub(s.sent)))
		}
	}
	// From the spans: a computed request's http span has a compute child
	// (the program's own wall_ns), so its self time is what the server and
	// the transport added around the query; wait_conn is how long after it
	// was due a request was put on a connection. The median wait is the
	// generator's own lateness (a connection was free, only the timer stood
	// in the way); the mean adds the arrivals that found every connection
	// busy.
	spans := p.rec.snapshot()
	self := selfTimes(spans)
	computed := make(map[int]bool)
	for _, sp := range spans {
		if sp.Name == "compute" {
			computed[sp.Parent] = true
		}
	}
	var overhead, wait []float64
	for _, sp := range spans {
		switch {
		case sp.Name == "http" && computed[sp.ID]:
			overhead = append(overhead, float64(self[sp.ID])/1e6)
		case sp.Name == "wait_conn":
			wait = append(wait, float64(sp.End-sp.Start)/1e6)
		}
	}
	out["server.overhead_ms_per_miss"] = mean(overhead)
	out["server.append_overhead_ms"] = mean(appendHTTP) - out["sirum.append_ms_per_op"]
	out["server.response_bytes_per_op"] = mean(bytes)
	out["server.conn_wait_ms_mean"] = mean(wait)
	out["loadgen.late_ms_p50"] = median(wait)
	out["server.queued_max"] = float64(pl.queuedMax)
	out["server.journal_bytes_per_row"] = ratio(float64(pl.journalAfter-pl.journalBefore), float64(pl.rowsAppended()))
	out["server.create_ms"] = median(pl.createMS)
	if len(p.restores) > 0 {
		out["server.restore_ms_per_session"] = 1e3 * median(p.restores) / float64(len(pl.ids))
	}

	hits, misses := pl.counters["sirumd_result_cache_hits_total"], pl.counters["sirumd_result_cache_misses_total"]
	out["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["server.cache_evictions"] = pl.counters["sirumd_result_cache_evictions_total"]
	out["server.queries_admitted"] = pl.counters["sirumd_queries_total"]
	out["server.rejected_total"] = pl.counters["sirumd_rejected_total"]

	// A cached request straight into the handler: no TCP, no client.
	c := newClient(pl.cl.front)
	home := pl.home(pl.ids[0])
	if home == nil {
		return fmt.Errorf("no daemon holds session %s", pl.ids[0])
	}
	body, _ := json.Marshal(mineRequest(0, pl.sz))
	path := "/v1/datasets/" + pl.ids[0] + "/mine"
	pr := &prober{rec: p.rec, parent: p.root, out: out}
	const calls = 200
	direct := pr.run("server.Handler.ServeHTTP(hit)", func() {
		for i := 0; i < calls; i++ {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
			home.srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}
	})
	out["server.handler_hit_us"] = direct * 1e3 / calls

	if pl.cl.rt == nil {
		return nil
	}
	roundTrips := func(c *server.Client) func() {
		return func() {
			for i := 0; i < calls; i++ {
				c.Mine(pl.ids[0], mineRequest(0, pl.sz))
			}
		}
	}
	viaRouter := pr.run("router hop: cached mine via router", roundTrips(c))
	toShard := pr.run("router hop: cached mine to home shard", roundTrips(newClient(home.base)))
	out["router.hop_ms"] = (viaRouter - toShard) / calls
	key := spec.RoutingKeyForID(pl.ids[0])
	const places = 100000
	placed := pr.run("router.Place", func() {
		for i := 0; i < places; i++ {
			pl.cl.rt.Place(key)
		}
	})
	out["router.place_ns"] = placed * 1e6 / places
	var health router.HealthResponse
	if err := c.Do("GET", "/v1/healthz", nil, &health); err != nil {
		return err
	}
	out["router.proxied_total"] = float64(health.Proxied)
	out["router.proxy_errors_total"] = float64(health.ProxyErrors)
	out["router.balance_max_over_mean"] = pl.balance
	out["router.export_bytes_per_session"] = pl.exportBytes
	out["router.migrate_ms_per_session"] = median(p.migrations)
	return nil
}
