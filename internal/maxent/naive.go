package maxent

import (
	"fmt"

	"sirum/internal/dataset"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// DefaultEpsilon is the relative-difference convergence threshold ε of
// Algorithm 1 (the thesis uses 0.01 throughout its evaluation).
const DefaultEpsilon = 0.01

// DefaultMaxLoops bounds the scaling loop; generalized iterative scaling
// converges for consistent constraints, so this is a safety net, not a
// tuning knob.
const DefaultMaxLoops = 100000

// ScaleStats reports one AddRule invocation.
type ScaleStats struct {
	Loops     int  // inner-loop iterations executed
	Converged bool // false only if MaxLoops was hit
	DataScans int  // full passes over D (2 per loop for naive, 2 total for RCT)
}

// Scaler is the incremental maximum-entropy estimator: rules are appended one
// at a time and the estimate column m̂ is rescaled to satisfy every
// constraint m(r) = m̂(r).
type Scaler interface {
	// AddRule appends r and rescales to convergence. Rules with empty
	// support are rejected.
	AddRule(r rule.Rule) (ScaleStats, error)
	// Mhat returns the live estimate column (transformed scale), aligned
	// with the dataset rows. Callers must not modify it.
	Mhat() []float64
	// Rules returns the rules added so far.
	Rules() []rule.Rule
	// Lambdas returns the rule multipliers λ(r), aligned with Rules.
	Lambdas() []float64
}

// scalerBase is the state both row-scanning front ends share: the rule
// list with its multipliers and targets, and the live estimate column.
type scalerBase struct {
	ds   *dataset.Dataset
	work []float64
	mhat []float64

	rules   []rule.Rule
	lambda  []float64
	targets []float64 // m(r): average transformed measure over the support set
	counts  []float64 // |S_D(r)|

	Epsilon  float64
	MaxLoops int
	Reg      *metrics.Registry
}

// newScalerBase starts the estimates at 1, the empty-product default of
// t[m̂] = Π λ.
func newScalerBase(ds *dataset.Dataset, work []float64) scalerBase {
	mhat := make([]float64, len(work))
	for i := range mhat {
		mhat[i] = 1
	}
	return scalerBase{ds: ds, work: work, mhat: mhat, Epsilon: DefaultEpsilon, MaxLoops: DefaultMaxLoops}
}

// Mhat returns the live estimate column.
func (s *scalerBase) Mhat() []float64 { return s.mhat }

// Rules returns the rules added so far.
func (s *scalerBase) Rules() []rule.Rule { return s.rules }

// Lambdas returns the rule multipliers.
func (s *scalerBase) Lambdas() []float64 { return s.lambda }

// Targets returns m(r) for each rule on the transformed scale.
func (s *scalerBase) Targets() []float64 { return s.targets }

// appendRule registers r with the target and support count of its scan.
func (s *scalerBase) appendRule(r rule.Rule, sum float64, count int) error {
	if count == 0 {
		return fmt.Errorf("maxent: rule %v has empty support", r)
	}
	s.rules = append(s.rules, r.Clone())
	s.lambda = append(s.lambda, 1)
	s.targets = append(s.targets, sum/float64(count))
	s.counts = append(s.counts, float64(count))
	return nil
}

// NaiveScaler implements Algorithm 1 verbatim: each scaling loop recomputes
// every rule's estimated average with a full pass over D, re-evaluating
// t ⊨ r attribute by attribute, and a second pass updates the estimates of
// the scaled rule's support set. This is the baseline the Rule Coverage
// Table optimization (Section 4.1) is measured against.
type NaiveScaler struct {
	scalerBase

	// ResetOnAdd replays the iterative-scaling style of Sarawagi's
	// user-cognizant analysis tool ([29], Section 5.6.2): every AddRule
	// resets all multipliers to 1 and rescales from scratch instead of
	// carrying the previous λ values forward.
	ResetOnAdd bool
}

// NewNaiveScaler builds a scaler over ds with the given transformed measure
// column (see NewTransform).
func NewNaiveScaler(ds *dataset.Dataset, work []float64) *NaiveScaler {
	return &NaiveScaler{scalerBase: newScalerBase(ds, work)}
}

// AddRule implements Scaler.
func (s *NaiveScaler) AddRule(r rule.Rule) (ScaleStats, error) {
	var sum float64
	count := 0
	for i := 0; i < s.ds.NumRows(); i++ {
		if r.MatchesRow(s.ds, i) {
			sum += s.work[i]
			count++
		}
	}
	if err := s.appendRule(r, sum, count); err != nil {
		return ScaleStats{}, err
	}
	if s.ResetOnAdd {
		for i := range s.lambda {
			s.lambda[i] = 1
		}
		for i := range s.mhat {
			s.mhat[i] = 1
		}
	}
	// Lines 3–6 recompute every rule's Σm̂ with a full pass over D, testing
	// coverage tuple by tuple; lines 10–12 multiply the scaled rule's
	// estimates, which is equivalent to recomputing Π λ.
	var st ScaleStats
	n := s.ds.NumRows()
	loops, err := Scale(s.targets, s.counts, s.lambda, s.Epsilon, s.MaxLoops,
		func(dst []float64) error {
			for ri, rr := range s.rules {
				var sum float64
				for i := 0; i < n; i++ {
					if rr.MatchesRow(s.ds, i) {
						sum += s.mhat[i]
					}
				}
				dst[ri] = sum
			}
			st.DataScans++
			return nil
		},
		func(ri int, ratio float64) error {
			for i := 0; i < n; i++ {
				if s.rules[ri].MatchesRow(s.ds, i) {
					s.mhat[i] *= ratio
				}
			}
			st.DataScans++
			if s.Reg != nil {
				s.Reg.Add(metrics.CtrScalingLoops, 1)
				s.Reg.Add(metrics.CtrScanRows, int64(2*n))
			}
			return nil
		})
	st.Loops, st.Converged = loops, err == nil
	return st, err
}
