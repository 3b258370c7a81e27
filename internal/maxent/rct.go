package maxent

import (
	"fmt"
	"strings"

	"sirum/internal/dataset"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// RCTScaler implements Algorithm 3 over dataset rows: a Rule Coverage
// Table so that iterative scaling touches D only twice per rule added —
// once to file each tuple by its previous row and the new rule's bit and
// build the RCT, once to write the converged estimates back — instead of
// twice per scaling loop.
type RCTScaler struct {
	scalerBase

	words int // signature words, fixed at construction
	frag  Fragment
	rct   RCT

	// OnRCTBuilt, if set, is invoked after the group-by pass of AddRule
	// (line 6 of Algorithm 3) with the freshly built table, before any
	// scaling happens — the state Table 4.1 of the thesis depicts.
	OnRCTBuilt func([]RCTRow)
}

// NewRCTScaler builds an RCT scaler over ds with the given transformed
// measure column. maxRules bounds the number of rules ever added.
func NewRCTScaler(ds *dataset.Dataset, work []float64, maxRules int) *RCTScaler {
	return &RCTScaler{
		scalerBase: newScalerBase(ds, work),
		words:      max(1, (maxRules+63)/64),
	}
}

// NumRCTRows exposes the current table size (for tests and the space
// analysis of Section 4.1).
func (s *RCTScaler) NumRCTRows() int { return s.rct.Len() }

// RCTRow describes one row of the coverage table for inspection.
type RCTRow struct {
	BA      string // bit string, first rule leftmost, e.g. "1100"
	Count   int
	SumM    float64
	SumMhat float64
}

// Snapshot returns the current RCT contents in the kernel's row order —
// for Table 4.1 of the thesis 1000, 1100, 1010, 1110 — used by the Table 4.1
// golden tests and the data-quality example.
func (s *RCTScaler) Snapshot() []RCTRow {
	out := make([]RCTRow, s.rct.Len())
	for i, row := range s.rct.rows {
		var ba strings.Builder
		for r := range s.rules {
			ba.WriteByte('0' + byte(s.rct.ba[i*s.words+r/64]>>(uint(r)%64)&1))
		}
		out[i] = RCTRow{BA: ba.String(), Count: row.count, SumM: row.sumM, SumMhat: row.sumMhat}
	}
	return out
}

// AddRule implements Scaler: lines 1–6 of Algorithm 3 file every tuple by
// the new rule's bit and rebuild the RCT with one pass over D, the scaling
// loop runs entirely on the RCT, and convergence triggers the single
// write-back pass.
func (s *RCTScaler) AddRule(r rule.Rule) (ScaleStats, error) {
	w := len(s.rules)
	if w >= s.words*64 {
		return ScaleStats{}, fmt.Errorf("maxent: RCT scaler capacity %d rules exceeded", s.words*64)
	}
	// Pass 1 over D: compute the target and group by signature, bit w new,
	// to build the RCT.
	var sum float64
	count := 0
	covers := []int{0}
	s.frag.Extend(s.words, w, w+1)
	for i := 0; i < s.ds.NumRows(); i++ {
		covered := covers[:0]
		if r.MatchesRow(s.ds, i) {
			covered = covers
			sum += s.work[i]
			count++
		}
		s.frag.Add(covered, s.work[i], s.mhat[i])
	}
	// With empty support no bit was set, so the rebuilt RCT is still valid.
	s.rct.Build(s.words, &s.frag)
	if err := s.appendRule(r, sum, count); err != nil {
		return ScaleStats{}, err
	}
	if s.OnRCTBuilt != nil {
		s.OnRCTBuilt(s.Snapshot())
	}
	loops, err := Scale(s.targets, s.counts, s.lambda, s.Epsilon, s.MaxLoops,
		func(dst []float64) error { s.rct.Sums(dst); return nil },
		func(ri int, ratio float64) error {
			s.rct.Rescale(ri, ratio)
			if s.Reg != nil {
				s.Reg.Add(metrics.CtrScalingLoops, 1)
			}
			return nil
		})
	st := ScaleStats{Loops: loops, Converged: err == nil, DataScans: 2}
	if err != nil {
		return st, err
	}
	// Write-back pass (lines 23–25): tuples sharing a signature share the
	// estimate Π λ, one product per RCT row.
	s.frag.WriteBack(s.rct.Products(s.lambda), s.mhat)
	if s.Reg != nil {
		s.Reg.Add(metrics.CtrScanRows, int64(2*s.ds.NumRows()))
	}
	return st, nil
}
