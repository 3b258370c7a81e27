// Package sirum is a Go implementation of SIRUM — Scalable Informative RUle
// Mining (Feng, University of Waterloo, 2016). Given a multidimensional
// dataset with categorical dimension attributes and one numeric measure
// attribute, SIRUM produces a small list of rules — conjunctions of
// attribute values with wildcards — that carry the most information about
// the distribution of the measure, under the maximum-entropy principle.
//
// The package is the public facade over the full system: the miner with all
// of the thesis' optimizations (Rule Coverage Table scaling, inverted-index
// candidate pruning, column-grouped ancestor generation, multi-rule
// insertion, mining on samples), a pluggable execution layer — a native
// multicore backend for real workloads and a simulated Spark-like cluster
// for reproducing the paper's figures (Options.Backend selects one) — and
// the data-cube exploration application. See README.md for a tour.
//
// Quick start:
//
//	ds, _ := sirum.ReadCSVFile("flights.csv", "Delay", "Flight ID")
//	res, _ := ds.Mine(sirum.Options{K: 4})
//	for _, r := range res.Rules {
//	    fmt.Printf("%s  avg=%.1f  count=%d\n", r, r.Avg, r.Count)
//	}
package sirum

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/explore"
	"sirum/internal/maxent"
	"sirum/internal/miner"
	"sirum/internal/rule"
	"sirum/internal/spec"
)

// Dataset is a multidimensional relation: categorical dimension attributes
// plus one numeric measure attribute. Every constructor records the
// dataset's canonical source identity (generator parameters, CSV content
// hash, or a content hash of the built rows), which is what sessions and
// servers use to address cached results and snapshots.
type Dataset struct {
	ds  *dataset.Dataset
	src *spec.DatasetSpec
}

// sourceSpec returns the canonical identity of the dataset's source,
// falling back to a content hash for datasets assembled by internal paths
// that did not record one.
func (d *Dataset) sourceSpec() spec.DatasetSpec {
	if d.src != nil {
		return *d.src
	}
	return spec.DatasetSpec{Version: spec.Version, Content: &spec.ContentSource{SHA256: spec.HashDataset(d.ds)}}
}

// contentHash returns the hash of the dataset's materialized content,
// reusing the one Builder.Build already computed (append batches arrive
// that way) rather than re-hashing the columns.
func (d *Dataset) contentHash() string {
	if d.src != nil && d.src.Content != nil {
		return d.src.Content.SHA256
	}
	return spec.HashDataset(d.ds)
}

// ReadCSV parses a dataset from CSV with a header row. The measure column is
// named explicitly; columns listed in ignore (row ids and such) are dropped;
// every other column becomes a dimension attribute.
func ReadCSV(r io.Reader, measure string, ignore ...string) (*Dataset, error) {
	h := sha256.New()
	ds, err := dataset.ReadCSV(io.TeeReader(r, h), measure, ignore...)
	if err != nil {
		return nil, err
	}
	sorted := append([]string(nil), ignore...)
	sort.Strings(sorted)
	if len(sorted) == 0 {
		sorted = nil
	}
	return &Dataset{ds: ds, src: &spec.DatasetSpec{Version: spec.Version, CSV: &spec.CSVSource{
		SHA256:  hex.EncodeToString(h.Sum(nil)),
		Measure: measure,
		Ignore:  sorted,
	}}}, nil
}

// ReadCSVFile opens path and parses it with ReadCSV.
func ReadCSVFile(path, measure string, ignore ...string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, measure, ignore...)
}

// WriteCSV writes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error { return d.ds.WriteCSV(w) }

// Builder assembles a dataset row by row.
type Builder struct {
	b *dataset.Builder
}

// NewBuilder starts a dataset with the given dimension attribute names and
// measure attribute name.
func NewBuilder(dimNames []string, measureName string) *Builder {
	return &Builder{b: dataset.NewBuilder(dataset.Schema{DimNames: dimNames, MeasureName: measureName})}
}

// Add appends one tuple: one string value per dimension plus the measure.
func (b *Builder) Add(dims []string, measure float64) error { return b.b.Add(dims, measure) }

// Build finalizes the dataset. Builder-assembled datasets are identified by
// a hash of their materialized content, there being no external source to
// fingerprint.
func (b *Builder) Build() (*Dataset, error) {
	ds, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds, src: &spec.DatasetSpec{Version: spec.Version, Content: &spec.ContentSource{SHA256: spec.HashDataset(ds)}}}, nil
}

// Generate returns one of the built-in synthetic evaluation datasets:
// "income", "gdelt", "susy", "tlc" (scaled to rows) or "flights" (the
// thesis' 14-row running example; rows ignored).
func Generate(name string, rows int, seed int64) (*Dataset, error) {
	ds, err := datagen.ByName(name, rows, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds, src: &spec.DatasetSpec{Version: spec.Version, Generator: &spec.GeneratorSource{Name: name, Rows: rows, Seed: seed}}}, nil
}

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return d.ds.NumRows() }

// NumDims returns the number of dimension attributes.
func (d *Dataset) NumDims() int { return d.ds.NumDims() }

// DimNames returns the dimension attribute names.
func (d *Dataset) DimNames() []string { return d.ds.Schema.DimNames }

// MeasureName returns the measure attribute's name.
func (d *Dataset) MeasureName() string { return d.ds.Schema.MeasureName }

// Variant selects a miner implementation; see the thesis' Table 4.2. The
// zero value is VariantOptimized.
type Variant string

// Supported variants.
const (
	VariantOptimized    Variant = "optimized"
	VariantBaseline     Variant = "baseline"
	VariantNaive        Variant = "naive"
	VariantRCT          Variant = "rct"
	VariantFastPruning  Variant = "fastpruning"
	VariantFastAncestor Variant = "fastancestor"
	VariantMultiRule    Variant = "multirule"
)

func (v Variant) internal() (miner.Variant, error) {
	switch v {
	case "", VariantOptimized:
		return miner.Optimized, nil
	case VariantBaseline:
		return miner.Baseline, nil
	case VariantNaive:
		return miner.Naive, nil
	case VariantRCT:
		return miner.RCT, nil
	case VariantFastPruning:
		return miner.FastPruning, nil
	case VariantFastAncestor:
		return miner.FastAncestor, nil
	case VariantMultiRule:
		return miner.MultiRule, nil
	default:
		return 0, fmt.Errorf("sirum: unknown variant %q", v)
	}
}

// Backend selects the execution substrate a mining job runs on.
type Backend string

// Supported backends.
const (
	// BackendNative (the default) runs the dataflow at host speed: real
	// goroutine parallelism with work stealing and no simulation
	// bookkeeping. Result.SimTime is always zero on this backend.
	BackendNative Backend = "native"
	// BackendSim runs the dataflow on the simulated Spark-like cluster the
	// thesis' evaluation models; Result.SimTime reports the simulated
	// cluster clock.
	BackendSim Backend = "sim"
)

// Cluster sizes the execution substrate. For BackendSim the fields shape the
// virtual cluster and its cost model; for BackendNative they only size the
// partition count and optional cache budget. The zero value uses a modest
// in-process cluster.
type Cluster struct {
	Executors        int   // virtual worker nodes (default 4)
	CoresPerExecutor int   // task slots per node (default 2)
	MemoryPerNode    int64 // bytes of cache per node (default: unbounded)
}

func (c Cluster) config() engine.Config {
	conf := engine.Config{
		Executors:         c.Executors,
		CoresPerExecutor:  c.CoresPerExecutor,
		MemoryPerExecutor: c.MemoryPerNode,
	}
	if conf.Executors <= 0 {
		conf.Executors = 4
	}
	if conf.CoresPerExecutor <= 0 {
		conf.CoresPerExecutor = 2
	}
	conf.Partitions = conf.Executors * conf.CoresPerExecutor
	return conf
}

// backend builds the execution substrate for the given kind ("" = native).
func (c Cluster) backend(kind Backend) (engine.Backend, error) {
	conf := c.config()
	switch kind {
	case "", BackendNative:
		// The virtual-cluster shape prices the simulation; a native run
		// partitions for the host instead (see NewNativeBackend).
		conf.Partitions = 0
		return engine.NewNativeBackend(conf), nil
	case BackendSim:
		return engine.NewSimBackend(conf), nil
	default:
		return nil, fmt.Errorf("sirum: unknown backend %q", kind)
	}
}

// Options configures mining. Zero values get the thesis' defaults.
type Options struct {
	// K is the number of rules to mine (beyond the implicit all-wildcards
	// rule). Default 10.
	K int
	// SampleSize is |s| for sample-based candidate pruning; 0 explores all
	// candidate rules exhaustively (only sensible for small data). Default
	// 64 for datasets above 1000 rows, 0 otherwise.
	SampleSize int
	// Variant selects the implementation (default optimized).
	Variant Variant
	// Epsilon is the iterative-scaling convergence threshold (default 0.01).
	Epsilon float64
	// Seed drives sampling (default 1).
	Seed int64
	// SampleFraction in (0,1) mines on a Bernoulli sample of the data
	// ("SIRUM on sample data") and evaluates the result on the full data.
	SampleFraction float64
	// Cluster sizes the execution substrate.
	Cluster Cluster
	// Backend selects the execution substrate (default BackendNative).
	// Both backends produce identical rule lists; they differ only in how
	// the work is executed and accounted.
	Backend Backend
}

// Condition is one non-wildcard attribute constraint of a rule.
type Condition struct {
	Attr  string
	Value string
}

// Rule is a mined informative rule with its display aggregates.
type Rule struct {
	// Conditions lists the constrained attributes in schema order;
	// attributes not listed are wildcards.
	Conditions []Condition
	// Avg is the average measure value over the tuples the rule covers.
	Avg float64
	// Count is the number of covered tuples.
	Count int64
	// Gain is the information-gain estimate at selection time.
	Gain float64
}

// String renders the rule like "(Fri, *, London)" is rendered in the thesis,
// as attr=value pairs: "Day=Fri ∧ Destination=London", or "(*)" for the
// all-wildcards rule.
func (r Rule) String() string {
	if len(r.Conditions) == 0 {
		return "(*)"
	}
	parts := make([]string, len(r.Conditions))
	for i, c := range r.Conditions {
		parts[i] = c.Attr + "=" + c.Value
	}
	return strings.Join(parts, " ∧ ")
}

// Result reports a mining run.
type Result struct {
	Rules []Rule
	// KL is the final Kullback-Leibler divergence between the measure and
	// the maximum-entropy estimates implied by the rules.
	KL float64
	// InfoGain is the information gain of the rule set over knowing only
	// the global average.
	InfoGain float64
	// Iterations of the greedy loop.
	Iterations int
	// WallTime is real elapsed time; SimTime is the simulated-cluster time
	// (always zero under BackendNative; see DESIGN.md on the execution
	// model).
	WallTime, SimTime time.Duration
	// Metrics snapshots this query's private counters and phase timings —
	// what exactly this query cost, isolated from any query running
	// concurrently on the same session.
	Metrics QueryMetrics
}

// QueryMetrics is a serializable per-query snapshot of counters (rows
// scanned, candidates, shuffle traffic, …) and phase durations (candidate
// pruning, iterative scaling, …), keyed by the repository's well-known
// metric names. Durations serialize as nanoseconds.
type QueryMetrics struct {
	Counters  map[string]int64         `json:"counters,omitempty"`
	Phases    map[string]time.Duration `json:"phases_ns,omitempty"`
	SimPhases map[string]time.Duration `json:"sim_phases_ns,omitempty"`
}

// Canonical normalizes the options for a dataset of the given size into
// their canonical query spec: defaults applied (the thesis' evaluation
// settings), the variant validated and spelled out. Two Options values that
// mean the same query — regardless of which zero values the caller left
// unset — canonicalize to specs with equal fingerprints, which is the
// identity result caches and request logs key on.
func (o Options) Canonical(rows int) (spec.QuerySpec, error) {
	if _, err := o.Variant.internal(); err != nil {
		return spec.QuerySpec{}, err
	}
	variant := o.Variant
	if variant == "" {
		variant = VariantOptimized
	}
	q := spec.QuerySpec{
		Version:        spec.Version,
		Kind:           spec.KindMine,
		K:              o.K,
		SampleSize:     o.SampleSize,
		Variant:        string(variant),
		Epsilon:        o.Epsilon,
		Seed:           o.Seed,
		SampleFraction: o.SampleFraction,
	}
	if q.K <= 0 {
		q.K = 10
	}
	if q.SampleSize == 0 && rows > 1000 {
		q.SampleSize = 64
	}
	if q.Epsilon <= 0 {
		q.Epsilon = 0.01
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	return q, nil
}

// minerOptions translates public options to the internal miner's via the
// canonical spec, so the defaults live in exactly one place whether the job
// runs cold, against a prepared session, or is being fingerprinted for a
// cache.
func (o Options) minerOptions(rows int) (miner.Options, error) {
	q, err := o.Canonical(rows)
	if err != nil {
		return miner.Options{}, err
	}
	v, err := Variant(q.Variant).internal()
	if err != nil {
		return miner.Options{}, err
	}
	return miner.Options{
		Variant:            v,
		K:                  q.K,
		SampleSize:         q.SampleSize,
		Epsilon:            q.Epsilon,
		Seed:               q.Seed,
		SampleFraction:     q.SampleFraction,
		EvaluateOnFullData: q.SampleFraction > 0 && q.SampleFraction < 1,
	}, nil
}

// Mine runs SIRUM cold over the dataset: the execution substrate is built,
// loaded and torn down for this one query. To ask many questions of one
// dataset — different K, variants, priors — Prepare once and query the
// returned Prepared instead.
func (d *Dataset) Mine(opt Options) (*Result, error) {
	mopt, err := opt.minerOptions(d.NumRows())
	if err != nil {
		return nil, err
	}
	cl, err := opt.Cluster.backend(opt.Backend)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res, err := miner.New(cl, d.ds, mopt).Run()
	if err != nil {
		return nil, err
	}
	return d.publicResult(res), nil
}

func (d *Dataset) publicResult(res *miner.Result) *Result {
	out := &Result{
		KL:         res.KL,
		InfoGain:   res.InfoGain,
		Iterations: res.Iterations,
		WallTime:   res.WallTime,
		SimTime:    res.SimTime,
		Metrics: QueryMetrics{
			Counters:  res.Counters,
			Phases:    res.Phases,
			SimPhases: res.SimPhases,
		},
	}
	for _, mr := range res.Rules {
		out.Rules = append(out.Rules, d.publicRule(mr))
	}
	return out
}

func (d *Dataset) publicRule(mr miner.MinedRule) Rule {
	r := Rule{Avg: mr.Avg, Count: mr.Count, Gain: mr.Gain}
	for j, v := range mr.Rule {
		if v != rule.Wildcard {
			r.Conditions = append(r.Conditions, Condition{
				Attr:  d.ds.Schema.DimNames[j],
				Value: d.ds.Dicts[j].Value(v),
			})
		}
	}
	return r
}

// ExploreOptions configures data-cube exploration (the application of
// Section 5.6.2): the analyst has already seen the GroupBys lowest-
// cardinality single-attribute group-bys, and wants the K most informative
// rules beyond them.
type ExploreOptions struct {
	K        int
	GroupBys int
	Seed     int64
	Cluster  Cluster
	// Backend selects the execution substrate (default BackendNative).
	Backend Backend
}

// Canonical normalizes exploration options into their canonical query
// spec, mirroring Options.Canonical: defaults applied, stable encoding,
// fingerprintable. Exploration always runs the optimized multi-rule miner
// without candidate pruning (Section 5.6.2), so kind plus K/GroupBys/Seed
// fully determine the answer.
func (o ExploreOptions) Canonical() spec.QuerySpec {
	q := spec.QuerySpec{
		Version:  spec.Version,
		Kind:     spec.KindExplore,
		K:        o.K,
		Variant:  string(VariantOptimized),
		Epsilon:  0.01,
		Seed:     o.Seed,
		GroupBys: o.GroupBys,
	}
	if q.K <= 0 {
		q.K = 10
	}
	if q.GroupBys <= 0 {
		q.GroupBys = 2
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	return q
}

// ExploreResult carries the recommendations plus the prior the analyst is
// assumed to know: per examined group-by (smallest domain first) its cells
// in value order, whatever order the rows arrived in.
type ExploreResult struct {
	Prior  []Rule
	Result *Result
}

// Explore recommends informative rules relative to prior knowledge.
func (d *Dataset) Explore(opt ExploreOptions) (*ExploreResult, error) {
	cl, err := opt.Cluster.backend(opt.Backend)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rec, err := explore.Run(cl, d.ds, explore.Options{
		K: opt.K, GroupBys: opt.GroupBys, Optimized: true, MultiRule: true, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return d.exploreResult(rec)
}

// Fit computes the maximum-entropy estimate of the measure for each tuple
// given a set of rules expressed as attribute→value conditions (the
// all-wildcards rule is always included first). It returns the estimates and
// the KL divergence from the true measure — the primitive the examples use
// to show what a rule set "says" about the data.
func (d *Dataset) Fit(rules [][]Condition) (estimates []float64, kl float64, err error) {
	tr, work := maxent.NewTransform(d.ds.Measure)
	s := maxent.NewRCTScaler(d.ds, work, len(rules)+1)
	if _, err := s.AddRule(rule.AllWildcards(d.NumDims())); err != nil {
		return nil, 0, err
	}
	for _, conds := range rules {
		r := rule.AllWildcards(d.NumDims())
		for _, c := range conds {
			j := d.ds.Schema.DimIndex(c.Attr)
			if j < 0 {
				return nil, 0, fmt.Errorf("sirum: unknown attribute %q", c.Attr)
			}
			code, ok := d.ds.Dicts[j].Lookup(c.Value)
			if !ok {
				return nil, 0, fmt.Errorf("sirum: value %q not in domain of %s", c.Value, c.Attr)
			}
			r[j] = code
		}
		if _, err := s.AddRule(r); err != nil {
			return nil, 0, err
		}
	}
	estimates = make([]float64, len(work))
	for i, v := range s.Mhat() {
		estimates[i] = tr.Invert(v)
	}
	return estimates, maxent.KLDivergence(work, s.Mhat()), nil
}

// Summary returns a short human-readable description of the dataset.
func (d *Dataset) Summary() string {
	domains := d.ds.DomainSizes()
	sorted := append([]int(nil), domains...)
	sort.Ints(sorted)
	return fmt.Sprintf("%d rows, %d dimension attributes (domains %v), measure %q (mean %.4g)",
		d.NumRows(), d.NumDims(), domains, d.MeasureName(), d.ds.MeanMeasure())
}
