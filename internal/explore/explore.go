// Package explore implements the smart data-cube exploration application of
// Sections 1 and 5.6.2 (after Sarawagi's user-cognizant multidimensional
// analysis [29]): the analyst has already examined the results of some
// group-by queries; SIRUM treats those cells as prior knowledge and
// recommends the k rules carrying the most information beyond what the
// analyst has seen.
//
// Exploration mines without sample pruning, so a cold run walks the full
// exhaustive cube every round — the heaviest pipeline in the repository. On
// packable schemas the miner runs it over arena-recycled cube.PackedTables
// (flat open-addressing round state instead of per-stage Go maps). A
// prepared session (RunPrepared) walks it once: the first explore freezes the
// exhaustive candidate lattice and every later round, of any explore, replays
// it; see miner.Prep and the cube package doc.
package explore

import (
	"fmt"
	"slices"
	"strings"

	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/miner"
	"sirum/internal/rule"
)

// Options configures an exploration run.
type Options struct {
	// K recommendations to produce.
	K int
	// GroupBys is the number of already-examined group-by queries; the
	// thesis uses the two with the lowest cardinality (smallest active
	// domains). Cells of those group-bys become prior rules.
	GroupBys int
	// Optimizations: when false, the run reproduces the straightforward
	// distributed implementation of prior work — reset-style iterative
	// scaling, single-stage cube, one rule per iteration. When true, the
	// run uses SIRUM's RCT scaler, column grouping and multi-rule
	// insertion. Candidate pruning is never used here, matching Section
	// 5.6.2 ("it was not originally implemented in [29]").
	Optimized bool
	// MultiRule enables two-rules-per-iteration when Optimized (Figure 5.15
	// also reports Optimized without multi-rule).
	MultiRule bool
	Epsilon   float64
	Seed      int64
}

// Recommendation is the exploration output.
type Recommendation struct {
	PriorRules []rule.Rule
	Result     *miner.Result
}

// PriorKnowledge derives the prior rule list: for each of the n
// lowest-cardinality dimension attributes, every cell of its single-
// attribute group-by (one rule per active domain value), cells in value
// order. Dictionary codes follow the order rows were ingested in, and the
// miner fits prior rules one after another, so listing cells by code would
// let a permutation of the same rows change the scaling path — the loop
// count, hence the run time, by a quarter, and KL in the sixth digit.
func PriorKnowledge(ds *dataset.Dataset, n int) []rule.Rule {
	order := ds.DimsByDomainSize()
	if n > len(order) {
		n = len(order)
	}
	var rules []rule.Rule
	for _, j := range order[:n] {
		values := ds.Dicts[j].Values()
		codes := make([]int32, len(values))
		for v := range codes {
			codes[v] = int32(v)
		}
		slices.SortFunc(codes, func(a, b int32) int { return strings.Compare(values[a], values[b]) })
		for _, v := range codes {
			r := rule.AllWildcards(ds.NumDims())
			r[j] = v
			if r.SupportSize(ds) == 0 {
				continue // dictionary value absent from this subset
			}
			rules = append(rules, r)
		}
	}
	return rules
}

// minerOptions translates an exploration scenario over ds into a mining job
// plus the prior rule list it seeds.
func minerOptions(ds *dataset.Dataset, opt Options) (miner.Options, []rule.Rule) {
	if opt.K <= 0 {
		opt.K = 10
	}
	if opt.GroupBys <= 0 {
		opt.GroupBys = 2
	}
	prior := PriorKnowledge(ds, opt.GroupBys)
	mopt := miner.Options{
		K:          opt.K,
		SampleSize: 0, // exhaustive: prior work had no candidate pruning
		Epsilon:    opt.Epsilon,
		Seed:       opt.Seed,
		PriorRules: prior,
	}
	if opt.Optimized {
		if opt.MultiRule {
			mopt.Variant = miner.Optimized
		} else {
			mopt.Variant = miner.RCT
			mopt.ColumnGroups = 2
		}
	} else {
		mopt.Variant = miner.Baseline
		mopt.ResetScaling = true // [29] re-scales all multipliers from scratch
	}
	return mopt, prior
}

// Run executes the exploration scenario cold on the given backend.
func Run(c engine.Backend, ds *dataset.Dataset, opt Options) (*Recommendation, error) {
	mopt, prior := minerOptions(ds, opt)
	res, err := miner.New(c, ds, mopt).Run()
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	return &Recommendation{PriorRules: prior, Result: res}, nil
}

// RunPrepared executes the exploration scenario as one query against a
// prepared mining session, reusing its loaded blocks and measure transform.
// Safe to call concurrently with other queries on the same Prep.
func RunPrepared(p *miner.Prep, opt Options) (*Recommendation, error) {
	mopt, prior := minerOptions(p.Dataset(), opt)
	res, err := p.Mine(mopt)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	return &Recommendation{PriorRules: prior, Result: res}, nil
}
