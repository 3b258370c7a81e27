// Command benchmark is the repository's benchmark: five named workloads,
// twelve end-to-end metrics, and per-layer metrics measured from outside
// the program under test. See README.md in this directory.
//
//	go run ./benchmark -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-out results.json]
//	go run ./benchmark -agree A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program reads it rather than repeat it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json in the working directory (how the
// benchmark is run) or its parent (how its tests are run).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// host is the fingerprint two result files must share to be comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func thisHost() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

// gitRev is best effort: the harness's checkout is not a repository.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// workloadResult is one workload's share of a results file.
type workloadResult struct {
	ScheduleDigest string                 `json:"schedule_digest"`
	BaselineDigest string                 `json:"baseline_digest,omitempty"` // serving: the sessions' answers after set-up
	Traced         bool                   `json:"traced"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Failures       []string               `json:"failures,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
	Shares         map[string]float64     `json:"shares,omitempty"`
}

// results is the -out file.
type results struct {
	GitRev    string                     `json:"git_rev"`
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke"`
	Sizes     sizes                      `json:"sizes"`
	Bounds    map[string]metricDef       `json:"bounds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "mine, explore, wide, serve, route, or all")
	seed := flag.Int64("seed", 1, "every input derives from it")
	seconds := flag.Float64("seconds", 0, "measured window per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes spans")
	out := flag.String("out", "", "write a results file, the input of -agree")
	smoke := flag.Bool("smoke", false, "tiny sizes: exercises every path in about a second per workload")
	agree := flag.Bool("agree", false, "compare two results files: -agree A.json B.json")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two results files"))
		}
		problems, err := agreeFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		for _, p := range problems {
			fmt.Println(p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Println("agree: every end-to-end metric of every workload within its bound")
		return
	}

	man, err := loadManifest()
	if err != nil {
		fatal(err)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
		if *smoke {
			*seconds = 1
		}
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	res := &results{GitRev: gitRev(), Host: thisHost(), Seed: *seed, Seconds: *seconds, Smoke: *smoke,
		Sizes: sz, Bounds: make(map[string]metricDef), Workloads: make(map[string]*workloadResult)}
	for _, d := range man.EndToEnd {
		res.Bounds[d.Name] = d
	}
	ok := true
	for _, name := range names {
		if !slices.Contains(workloadNames, name) {
			fatal(fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", ")))
		}
		wr, err := runWorkload(man, name, *seed, time.Duration(*seconds*float64(time.Second)), sz, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		res.Workloads[name] = wr
		report(man, name, wr)
		ok = ok && wr.Failed == 0
	}
	if *out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		// The line above already says correct:false; the exit code stays 0
		// so the harness reads it rather than a bare failure.
		fmt.Fprintln(os.Stderr, "benchmark: some ops failed a correctness check")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(man *manifest, name string, seed int64, window time.Duration, sz sizes, traced bool) (*workloadResult, error) {
	if !traced {
		p, err := runPass(name, seed, window, sz, nil)
		if err != nil {
			return nil, err
		}
		defer p.close()
		wr := &workloadResult{ScheduleDigest: p.digest(), BaselineDigest: p.baseline()}
		wr.Metrics, wr.Attempted, wr.Failed, wr.Failures = p.endToEnd(man.EndToEnd)
		return wr, nil
	}
	// Set-up time is an end-to-end metric; the traced run sets up once.
	sz.SetupReps = 1
	p, err := runPass(name, seed, window, sz, newRecorder())
	if err != nil {
		return nil, err
	}
	defer p.close()
	e2e, attempted, failed, failures := p.endToEnd(man.EndToEnd)
	wr := &workloadResult{ScheduleDigest: p.digest(), BaselineDigest: p.baseline(), Traced: true, Attempted: attempted, Failed: failed, Failures: failures}
	layers, shares, err := p.perLayer()
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: traced pass op_mean_ms %.6g (compare the untraced run; repeats differ by more than tracing costs)\n",
		name, e2e["op_mean_ms"].Value)
	wr.Shares = shares
	wr.Metrics = make(map[string]metricValue)
	for _, d := range man.PerLayer {
		v, have := layers[d.Name]
		if !have {
			return nil, fmt.Errorf("per-layer metric %s is declared in BENCHMARK.json but not computed", d.Name)
		}
		wr.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	spans := p.rec.snapshot()
	path := filepath.Join(".bench_out", "spans-"+name+".jsonl")
	if err := writeJSONL(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", name, len(spans), path)
	return wr, nil
}

// report prints every metric by name with its unit, then the contract line.
func report(man *manifest, name string, wr *workloadResult) {
	fmt.Printf("workload %s  schedule_digest %s  attempted %d  failed %d\n", name, wr.ScheduleDigest, wr.Attempted, wr.Failed)
	if wr.BaselineDigest != "" {
		fmt.Printf("  baseline_digest %s\n", wr.BaselineDigest)
	}
	for _, f := range wr.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	defs := man.EndToEnd
	if wr.Traced {
		defs = man.PerLayer
	}
	for _, d := range defs {
		v := wr.Metrics[d.Name]
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf("  n=%d", v.Samples)
		}
		if v.AliasOf != "" {
			note += "  (= " + v.AliasOf + "; no op of this class here)"
		}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", d.Name, v.Value, v.Unit, note)
	}
	for _, k := range sortedKeys(wr.Shares) {
		fmt.Printf("  share %-28s %14.4g\n", k, wr.Shares[k])
	}
	line := contractLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: make(map[string]metricValue)}
	for k, v := range wr.Metrics {
		line.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	raw, _ := json.Marshal(line) // plain numbers and strings
	fmt.Println(string(raw))
}
