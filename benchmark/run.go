package main

import (
	"fmt"
	"runtime"
	"time"
)

// pass is one set-up-then-measure of a workload; a run is one pass, traced
// (rec non-nil) or not.
type pass struct {
	name    string
	sz      sizes
	lib     *libPlan   // library workloads
	srv     *servePlan // serving workloads
	setups  []float64  // seconds, one per set-up repetition
	samples []sample
	proc    [2]procStats // around the window
	// traceSpent is the time the window spent recording: inside the
	// recorder and, for serving workloads, in the admission-queue sampler.
	traceSpent time.Duration

	restores     []float64 // seconds
	migrations   []float64 // ms per session moved, one per drain pass
	events       int       // restore repetitions and drain passes attempted…
	eventsFailed int       // …and those after which a session was not what it had been

	rec  *recorder
	root int
}

func isServing(name string) bool { return name == "serve" || name == "route" }

func (p *pass) digest() string {
	if p.srv != nil {
		return p.srv.digest
	}
	return p.lib.digest
}

func (p *pass) baseline() string {
	if p.srv != nil {
		return p.srv.baseline
	}
	return ""
}

func (p *pass) close() {
	if p.lib != nil {
		p.lib.close()
	}
	if p.srv != nil {
		p.srv.cl.stop()
	}
}

// runPass sets the workload up sz.SetupReps times (set-up time is the
// median; all but the last are torn down again), runs the window, the
// events that follow it, and the oracle. The caller closes the pass.
func runPass(name string, seed int64, window time.Duration, sz sizes, rec *recorder) (*pass, error) {
	p := &pass{name: name, sz: sz, rec: rec}
	start := time.Now()
	p.root = rec.open(0, "run", name, start)
	for rep := 0; rep < sz.SetupReps; rep++ {
		p.close()
		t0 := time.Now()
		var err error
		if isServing(name) {
			p.srv, err = buildServing(name == "route", seed, window.Seconds(), sz)
		} else {
			p.lib, err = buildLibrary(name, seed, sz)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		rec.add(p.root, "setup", "", t0, time.Now(), nil)
	}

	// Start every window from the same heap: what three set-ups left
	// behind otherwise decides when the collector first runs.
	runtime.GC()
	p.proc[0] = readProc()
	tracing := rec.spentNS()
	if p.lib != nil {
		p.samples = p.lib.loop(window, rec, p.root)
	} else {
		p.samples = p.srv.openLoop(rec, p.root)
	}
	p.proc[1] = readProc()
	p.traceSpent = time.Duration(rec.spentNS() - tracing)

	if err := p.afterWindow(); err != nil {
		p.close()
		return nil, err
	}
	if p.lib != nil {
		p.lib.verify(p.samples)
	} else {
		p.srv.verify(p.samples)
	}
	rec.close(p.root, time.Now(), nil)
	return p, nil
}

// afterWindow runs the events a workload measures once traffic has stopped.
func (p *pass) afterWindow() error {
	var err error
	if p.srv != nil && p.rec != nil {
		if err := p.srv.readCounters(); err != nil {
			return err
		}
	}
	switch p.name {
	case "serve":
		t0 := time.Now()
		p.restores, p.eventsFailed, err = p.srv.restore()
		p.events = p.sz.RestoreReps
		p.rec.add(p.root, "restore", "", t0, time.Now(), nil)
	case "route":
		if p.rec != nil {
			if err := p.srv.topology(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		p.migrations, p.eventsFailed, err = p.srv.migrate()
		p.events = p.sz.DrainPasses
		p.rec.add(p.root, "migrate", "", t0, time.Now(), nil)
	}
	return err
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// AliasOf names the metric whose value is repeated here because this
	// workload issues no op of the metric's own class.
	AliasOf string `json:"alias_of,omitempty"`
}

// classOf maps the class-latency metrics to their op class. A workload that
// issues no op of a metric's class (and restores or migrates nothing) still
// owes the harness a value for it: there the metric repeats op_mean_ms — the
// steadiest number every workload has, in seconds where that is the
// metric's unit — and says so.
var classOf = map[string]string{
	"mine_p50_ms": classMine, "explore_p50_ms": classExplore, "prior_explore_p50_ms": classPrior,
	"append_p50_ms": classAppend, "hit_p50_ms": classHit,
}

// classMedian is a class's typical latency in ms. The closed loop cycles a
// fixed op list, so its classes are a handful of specs (four K values,
// memo or fresh) whose latencies sit in separate clusters; a pooled median
// would jump between clusters from run to run, so the median is taken per
// spec and averaged over specs. Open-loop classes are pooled.
func classMedian(samples []sample, class string, stratified bool) (value float64, n int) {
	strata := make(map[string][]float64)
	for i := range samples {
		s := &samples[i]
		if s.class != class || s.err != nil {
			continue
		}
		key := ""
		if stratified {
			key = s.stratum
		}
		strata[key] = append(strata[key], ms(s.latency()))
		n++
	}
	var medians []float64
	for _, v := range strata {
		medians = append(medians, median(v))
	}
	return mean(medians), n
}

// windowParts is how many equal parts a serving window is cut into for
// op_mean_ms.
const windowParts = 5

// throughput returns ops_per_s and op_mean_ms. Both are taken per part of
// the window and the median part reported, so that one burst — a host
// pause, a collection, a queue that built behind a stall — costs one part
// rather than the run. A closed loop's parts are its op cycles (whole
// cycles only: a partial one would tilt the op mix), and with one caller its
// throughput is the reciprocal of its mean latency. An open loop's parts
// are fifths of the window by due time; its throughput is what the
// schedule sent, over the wall time it took to finish.
func (p *pass) throughput() (opsPerS, opMeanMS float64) {
	var means []float64
	if p.lib != nil {
		lat := make([]float64, len(p.samples))
		for i := range p.samples {
			lat[i] = ms(p.samples[i].latency())
		}
		for i := 0; i+p.lib.cycle <= len(lat); i += p.lib.cycle {
			means = append(means, mean(lat[i:i+p.lib.cycle]))
		}
		if len(means) == 0 { // window shorter than one cycle (smoke)
			means = []float64{mean(lat)}
		}
		opMeanMS = median(means)
		return 1000 / opMeanMS, opMeanMS
	}
	first, last := p.samples[0].due, p.samples[0].done
	for i := range p.samples {
		if p.samples[i].done.After(last) {
			last = p.samples[i].done
		}
	}
	span := p.samples[len(p.samples)-1].due.Sub(first) + 1
	parts := make([][]float64, windowParts)
	for i := range p.samples {
		if s := &p.samples[i]; s.err == nil {
			k := int(windowParts * s.due.Sub(first) / span)
			parts[k] = append(parts[k], ms(s.latency()))
		}
	}
	for _, part := range parts {
		if len(part) > 0 {
			means = append(means, mean(part))
		}
	}
	return float64(len(p.samples)) / last.Sub(first).Seconds(), median(means)
}

// endToEnd computes the twelve end-to-end metrics of an untraced pass,
// and the attempted/failed counts behind correct_share.
func (p *pass) endToEnd(defs []metricDef) (out map[string]metricValue, attempted, failed int, failures []string) {
	out = make(map[string]metricValue)
	var latencies []float64
	within := 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.err != nil {
			failed++
			if len(failures) < 5 {
				failures = append(failures, s.err.Error())
			}
			continue
		}
		latencies = append(latencies, ms(s.latency()))
		if s.latency() <= limits[p.name][s.class] {
			within++
		}
	}
	attempted = len(p.samples) + p.events
	failed += p.eventsFailed
	within += p.events - p.eventsFailed

	set := func(name string, v float64, n int) { out[name] = metricValue{Value: v, Samples: n} }
	set("setup_s", median(p.setups), len(p.setups))
	opsPerS, opMean := p.throughput()
	set("ops_per_s", opsPerS, len(latencies))
	set("op_mean_ms", opMean, len(latencies))
	set("within_limit_share", float64(within)/float64(attempted), attempted)
	set("correct_share", 1-float64(failed)/float64(attempted), attempted)
	for metric, class := range classOf {
		if v, n := classMedian(p.samples, class, p.lib != nil); n > 0 {
			set(metric, v, n)
		}
	}
	if len(p.restores) > 0 {
		set("restore_s", median(p.restores), len(p.restores))
	}
	if len(p.migrations) > 0 {
		set("migrate_ms", median(p.migrations), len(p.migrations))
	}
	for _, d := range defs {
		v, have := out[d.Name]
		if !have {
			v = metricValue{Value: out["op_mean_ms"].Value, Samples: out["op_mean_ms"].Samples, AliasOf: "op_mean_ms"}
			if d.Unit == "s" {
				v.Value /= 1000
			}
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out, attempted, failed, failures
}
