package miner

import (
	"fmt"

	"sirum/internal/dataset"
	"sirum/internal/maxent"
	"sirum/internal/rule"
)

// DefaultRemineFactor is the remineFactor sessions pass Maintain unless
// configured otherwise.
const DefaultRemineFactor = 1.5

// Maintained is the state an incrementally maintained rule list carries
// from one batch to the next — the streaming SIRUM sketched in the thesis'
// future work (Chapter 7). The zero value has mined nothing yet.
type Maintained struct {
	// Rules is the current rule list, the all-wildcards rule first; empty
	// before the first mine.
	Rules []rule.Rule
	// BaseRatio is the unexplained-divergence share (KL divided by the
	// all-wildcards baseline KL on the same data) right after the last
	// full mine.
	BaseRatio float64
}

// IncrementalResult reports one Maintain.
type IncrementalResult struct {
	// Remined is true when the batch triggered a full mining pass.
	Remined bool
	// KL is the divergence of the current rule list on the accumulated
	// data (after refit or re-mine).
	KL float64
	// Rules is the current rule list (excluding the all-wildcards rule),
	// with aggregates recomputed on the accumulated data.
	Rules []MinedRule
}

// Maintain brings prev up to date with data, the accumulated dataset, and
// returns the new state. It never modifies prev, so on error the caller
// keeps its last good state by dropping the result. The rule list is
// *refit* (iterative scaling only — two scans per rule with the RCT, no
// candidate generation) unless nothing was mined yet, a rule lost its
// support, or the refit's unexplained-divergence share exceeds remineFactor
// times prev.BaseRatio; then it is mined from scratch with opt — as a query
// against p when p prepared data itself, cold on p's backend when p holds a
// Bernoulli sample of it. Normalizing by the baseline makes the trigger
// insensitive to the overall divergence shifting as batches mix
// distributions.
func Maintain(p *Prep, data *dataset.Dataset, prev Maintained, opt Options, remineFactor float64) (Maintained, *IncrementalResult, error) {
	if data == nil || data.NumRows() == 0 {
		return Maintained{}, nil, fmt.Errorf("miner: no data to maintain")
	}
	for _, r := range prev.Rules {
		if len(r) != data.NumDims() {
			return Maintained{}, nil, fmt.Errorf("miner: maintained rule %v does not fit the data's %d dimensions", r, data.NumDims())
		}
	}
	opt = opt.withDefaults()
	baseline := baselineKL(data)
	if len(prev.Rules) > 0 {
		// Refit: recompute the maximum-entropy fit of the existing rules on
		// the grown data. Rules may have lost their support entirely (values
		// absent from new reality) — that forces a re-mine.
		kl, kept := refit(data, prev.Rules, opt.Epsilon)
		stale := len(kept) != len(prev.Rules) || klRatio(kl, baseline) > remineFactor*prev.BaseRatio
		if !stale {
			next := Maintained{Rules: kept, BaseRatio: prev.BaseRatio}
			return describe(data, next, &IncrementalResult{KL: kl})
		}
	}

	var res *Result
	var err error
	cold := p.Dataset() != data
	if cold {
		res, err = New(p.Backend(), data, opt).Run()
	} else {
		res, err = p.Mine(opt)
	}
	if err != nil {
		return Maintained{}, nil, err
	}
	rules := make([]rule.Rule, 0, len(res.Rules)+1)
	rules = append(rules, rule.AllWildcards(data.NumDims()))
	for _, mr := range res.Rules {
		rules = append(rules, mr.Rule)
	}
	kl := res.KL
	if cold {
		// A cold run may have mined a sample (opt.SampleFraction): report
		// and seed the baseline from the rules' fit on every row, as a
		// refit would.
		kl, _ = refit(data, rules, opt.Epsilon)
	}
	next := Maintained{Rules: rules, BaseRatio: klRatio(kl, baseline)}
	return describe(data, next, &IncrementalResult{Remined: true, KL: kl})
}

// refit runs the RCT scaler over data with the given rule list (the
// all-wildcards rule first) and returns the divergence plus the rules that
// still have support.
func refit(data *dataset.Dataset, rules []rule.Rule, epsilon float64) (float64, []rule.Rule) {
	_, work := maxent.NewTransform(data.Measure)
	s := maxent.NewRCTScaler(data, work, len(rules)+1)
	s.Epsilon = epsilon
	kept := make([]rule.Rule, 0, len(rules))
	for _, r := range rules {
		if _, err := s.AddRule(r); err == nil { // else: no support left, drop it
			kept = append(kept, r)
		}
	}
	return maxent.KLDivergence(work, s.Mhat()), kept
}

// baselineKL returns the divergence of the all-wildcards-only model on
// non-empty data (the denominator of the drift ratio).
func baselineKL(data *dataset.Dataset) float64 {
	_, work := maxent.NewTransform(data.Measure)
	avg := 0.0
	for _, v := range work {
		avg += v
	}
	avg /= float64(len(work))
	base := make([]float64, len(work))
	for i := range base {
		base[i] = avg
	}
	return maxent.KLDivergence(work, base)
}

// klRatio is the unexplained-divergence share with a zero-baseline guard.
func klRatio(kl, baseline float64) float64 {
	if baseline <= 1e-15 {
		return 0
	}
	return kl / baseline
}

// describe completes out with the display aggregates of next's rules on data
// (the all-wildcards rule is implicit in reports) and returns next with it.
func describe(data *dataset.Dataset, next Maintained, out *IncrementalResult) (Maintained, *IncrementalResult, error) {
	out.Rules = make([]MinedRule, 0, len(next.Rules))
	for _, r := range next.Rules[1:] {
		sum, count := r.SupportSums(data)
		if count == 0 {
			return Maintained{}, nil, fmt.Errorf("miner: kept rule %v lost its support", r)
		}
		out.Rules = append(out.Rules, MinedRule{Rule: r.Clone(), Avg: sum / float64(count), Count: int64(count)})
	}
	return next, out, nil
}
