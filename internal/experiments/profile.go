package experiments

import (
	"fmt"
	"time"

	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/explore"
	"sirum/internal/metrics"
	"sirum/internal/miner"
	"sirum/internal/platform"
)

// Paper-scale dataset sizes (Section 5.1.2 / Section 3.3).
const (
	incomeRows  = 1_500_000
	gdeltRows   = 3_800_000
	susyRows    = 5_000_000
	tlc2mRows   = 2_000_000
	tlc20mRows  = 20_000_000
	tlc40mRows  = 40_000_000
	tlc80mRows  = 80_000_000
	tlc160mRows = 160_000_000
	tlcFullRows = 1_080_000_000
)

// newBackend builds the configured execution substrate (sim by default).
func (c Config) newBackend(conf engine.Config) engine.Backend {
	if c.Backend == "native" {
		return engine.NewNativeBackend(conf)
	}
	return engine.NewSimBackend(conf)
}

// cluster builds a Spark-profile cluster with overheads scaled to the run.
func (c Config) cluster(executors, cores int, memPerExec int64) engine.Backend {
	conf := platform.Scale(platform.Config(platform.Spark, executors, cores, memPerExec), float64(c.Scale))
	conf.Partitions = executors * cores
	return c.newBackend(conf)
}

// mineFresh runs one mining job on a fresh default cluster.
func (c Config) mineFresh(ds *dataset.Dataset, opt miner.Options) (*miner.Result, error) {
	cl := c.cluster(c.Executors, c.Cores, 0)
	defer cl.Close()
	opt.Seed = c.Seed
	return miner.New(cl, ds, opt).Run()
}

// session is a prepared mining session for the comparison sweeps: the
// dataset is loaded, transformed and sampled once per configuration sweep,
// and every variant/k/|s| combination runs as a query against that shared
// state instead of re-loading from scratch. Cross-iteration LCA
// memoization is disabled so every query keeps the paper-faithful
// per-iteration work profile the figures compare.
type session struct {
	cfg       Config
	cl        engine.Backend
	prep      *miner.Prep
	prepTime  time.Duration // sim or wall, per cfg.Backend
	queries   int
	queryTime time.Duration
}

// newSession prepares ds once on a fresh default cluster. sampleSize seeds
// the prepared pruning sample; queries asking for other sizes draw their own
// while still reusing the loaded blocks.
func (c Config) newSession(ds *dataset.Dataset, sampleSize int) (*session, error) {
	cl := c.cluster(c.Executors, c.Cores, 0)
	wall := time.Now()
	sim0 := engine.SimTime(cl)
	prep, err := miner.Prepare(cl, ds, miner.PrepOptions{
		SampleSize:     sampleSize,
		Seed:           c.Seed,
		DisableLCAMemo: true,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	s := &session{cfg: c, cl: cl, prep: prep}
	if c.Backend == "native" {
		s.prepTime = time.Since(wall)
	} else {
		s.prepTime = engine.SimTime(cl) - sim0
	}
	return s, nil
}

// mine runs one query against the prepared state, accumulating the
// amortization accounting.
func (s *session) mine(opt miner.Options) (*miner.Result, error) {
	opt.Seed = s.cfg.Seed
	res, err := s.prep.Mine(opt)
	if err != nil {
		return nil, err
	}
	s.queries++
	s.queryTime += s.cfg.runtime(res)
	return res, nil
}

// explore runs one cube-exploration scenario as a query against the
// prepared state.
func (s *session) explore(opt explore.Options) (*explore.Recommendation, error) {
	opt.Seed = s.cfg.Seed
	rec, err := explore.RunPrepared(s.prep, opt)
	if err != nil {
		return nil, err
	}
	s.queries++
	s.queryTime += s.cfg.runtime(rec.Result)
	return rec, nil
}

// close drops the prepared state and the cluster.
func (s *session) close() {
	s.prep.Drop()
	s.cl.Close()
}

// amortNote renders the prepare-once accounting: the amortized per-query
// time alongside what one cold run (prepare + query) costs.
func (s *session) amortNote() string {
	if s.queries == 0 {
		return "prepared session ran no queries"
	}
	avg := s.queryTime / time.Duration(s.queries)
	return fmt.Sprintf("prepared once in %.3fs; %d queries, amortized %.3fs/query vs %.3fs cold (prepare+query)",
		s.prepTime.Seconds(), s.queries, avg.Seconds(), (s.prepTime + avg).Seconds())
}

func init() {
	register("fig-3.1", "Baseline SIRUM runtimes: rule generation vs iterative scaling (k=10, |s|=64)", fig31)
	register("fig-3.2", "Rule generation runtime by step across datasets and dimensionalities", fig32)
	register("fig-4.3", "Memory usage over time under different memory allocations (Income)", fig43)
	register("fig-4.4", "Memory usage over time: SIRUM vs SIRUM on sample data", fig44)
}

func fig31(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "fig-3.1",
		Title:  fmt.Sprintf("Baseline SIRUM runtimes, k=%d |s|=%d (simulated seconds)", cfg.k(10), cfg.s(64)),
		Header: []string{"dataset", "rows", "rule_gen_s", "iter_scaling_s", "total_s"},
		Notes: []string{
			"expected shape: the bottleneck shifts from iterative scaling to rule",
			"generation as dimensionality grows (SUSY, 18 dims); TLC is largest overall",
		},
	}
	cases := []struct {
		name string
		rows int
	}{
		{"income", incomeRows}, {"gdelt", gdeltRows}, {"susy", susyRows}, {"tlc", tlc160mRows},
	}
	for _, cse := range cases {
		ds, err := cfg.data(cse.name, cse.rows)
		if err != nil {
			return nil, err
		}
		sampleSize, k := cfg.s(64), cfg.k(10)
		if cse.name == "susy" {
			// The 18-dim ancestor blowup is the thesis' own bottleneck; at
			// this repository's scale it is reproduced with a scaled-down
			// sample and k (see DESIGN.md §1).
			sampleSize, k = cfg.s(8), cfg.k(5)
		}
		res, err := cfg.mineFresh(ds, miner.Options{Variant: miner.Baseline, K: k, SampleSize: sampleSize})
		if err != nil {
			return nil, err
		}
		rg := cfg.phaseTime(res, metrics.PhaseRuleGen)
		sc := cfg.phaseTime(res, metrics.PhaseScaling)
		t.AddRow(cse.name, fmt.Sprint(ds.NumRows()), secs(rg), secs(sc), secs(rg+sc))
	}
	return []*Table{t}, nil
}

func fig32(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "fig-3.2",
		Title:  "Rule generation runtime by step (percent of rule-gen time, plus absolute)",
		Header: []string{"dataset", "dims", "pruning_%", "ancestors_%", "gain_%", "rule_gen_s"},
		Notes: []string{
			"expected shape: candidate pruning dominates at 9-10 dims;",
			"ancestor generation dominates by 18 dims",
		},
	}
	type cse struct {
		name string
		rows int
		proj int
	}
	cases := []cse{
		{"income", incomeRows, 0}, {"gdelt", gdeltRows, 0},
		{"susy", susyRows, 10}, {"susy", susyRows, 14}, {"susy", susyRows, 18},
	}
	for _, c := range cases {
		ds, err := cfg.data(c.name, c.rows)
		if err != nil {
			return nil, err
		}
		label := c.name
		if c.proj > 0 {
			ds = ds.Project(c.proj)
			label = fmt.Sprintf("%s(%d)", c.name, c.proj)
		}
		sampleSize, k := cfg.s(64), cfg.k(10)
		if c.name == "susy" {
			sampleSize, k = cfg.s(8), cfg.k(3)
		}
		res, err := cfg.mineFresh(ds, miner.Options{Variant: miner.Baseline, K: k, SampleSize: sampleSize})
		if err != nil {
			return nil, err
		}
		prune := cfg.phaseTime(res, metrics.PhaseCandPruning)
		anc := cfg.phaseTime(res, metrics.PhaseAncestorGen)
		gain := cfg.phaseTime(res, metrics.PhaseGainComputing)
		total := prune + anc + gain
		pct := func(x float64) string {
			if total == 0 {
				return "0"
			}
			return fmt.Sprintf("%.0f", 100*x/float64(total))
		}
		t.AddRow(label, fmt.Sprint(ds.NumDims()),
			pct(float64(prune)), pct(float64(anc)), pct(float64(gain)), secs(total))
	}
	return []*Table{t}, nil
}

// memoryRun mines Income under a given executor memory budget and returns
// the run plus the backend, whose registry holds the spill and reload counts.
func memoryRun(cfg Config, memPerExec int64, fraction float64) (*miner.Result, engine.Backend, error) {
	ds, err := cfg.data("income", incomeRows)
	if err != nil {
		return nil, nil, err
	}
	cl := cfg.cluster(1, cfg.Cores, memPerExec)
	opt := miner.Options{Variant: miner.Baseline, K: cfg.k(10), SampleSize: cfg.s(16), Seed: cfg.Seed, Partitions: 16}
	if fraction > 0 && fraction < 1 {
		opt.SampleFraction = fraction
	}
	res, err := miner.New(cl, ds, opt).Run()
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return res, cl, nil
}

func fig43(cfg Config) ([]*Table, error) {
	ds, err := cfg.data("income", incomeRows)
	if err != nil {
		return nil, err
	}
	dataBytes := ds.ApproxBytes()
	t := &Table{
		ID:     "fig-4.3",
		Title:  "Memory pressure: plentiful vs scarce executor memory (Income)",
		Header: []string{"memory_budget", "fits", "spill_MB", "reload_MB", "total_s"},
		Notes: []string{
			"expected shape: the scarce-memory run keeps re-reading spilled blocks",
			"(like the 3GB executor in the thesis) and runs much slower",
		},
	}
	// Budgets bracketing the dataset: the cache keeps 60% of executor
	// memory, so 2x data is plentiful and 0.5x data forces spilling.
	for _, mult := range []float64{2.0, 0.5} {
		mem := int64(float64(dataBytes) * mult / 0.6)
		res, cl, err := memoryRun(cfg, mem, 0)
		if err != nil {
			return nil, err
		}
		spill := cl.Reg().Counter(metrics.CtrSpillBytes)
		reload := cl.Reg().Counter(metrics.CtrSpillReads)
		t.AddRow(fmt.Sprintf("%.1fx data", mult), fmt.Sprint(spill == 0),
			fmt.Sprintf("%.2f", float64(spill)/(1<<20)),
			fmt.Sprintf("%.2f", float64(reload)/(1<<20)),
			secs(cfg.runtime(res)))
		cl.Close()
	}
	return []*Table{t}, nil
}

func fig44(cfg Config) ([]*Table, error) {
	ds, err := cfg.data("income", incomeRows)
	if err != nil {
		return nil, err
	}
	dataBytes := ds.ApproxBytes()
	mem := int64(float64(dataBytes) * 0.5 / 0.6) // scarce, as in fig-4.3
	t := &Table{
		ID:     "fig-4.4",
		Title:  "Scarce memory: full data vs SIRUM on sample data (Income)",
		Header: []string{"run", "rows_mined", "spill_MB", "total_s", "info_gain"},
		Notes: []string{
			"expected shape: the 60% and 10% samples fit in memory (no re-reads)",
			"and run faster, at a small information-gain penalty",
		},
	}
	for _, fr := range []float64{1.0, 0.6, 0.1} {
		res, cl, err := memoryRun(cfg, mem, fr)
		if err != nil {
			return nil, err
		}
		rows := ds.NumRows()
		if fr < 1 {
			rows = int(float64(rows) * fr)
		}
		t.AddRow(fmt.Sprintf("sample %.0f%%", fr*100), fmt.Sprint(rows),
			fmt.Sprintf("%.2f", float64(cl.Reg().Counter(metrics.CtrSpillBytes))/(1<<20)),
			secs(cfg.runtime(res)), fmt.Sprintf("%.5f", res.InfoGain))
		cl.Close()
	}
	return []*Table{t}, nil
}
