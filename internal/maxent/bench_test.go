package maxent

import (
	"slices"
	"strings"
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/rule"
)

// incomePrior is the prior an exploration seeds over ds (the shape of
// explore.PriorKnowledge, which this package cannot import): one rule per
// supported value of each of the groups smallest dimensions, values in
// string order. Over income/3000 with 9 groups it is 78 rules.
func incomePrior(ds *dataset.Dataset, groups int) []rule.Rule {
	var rules []rule.Rule
	for _, j := range ds.DimsByDomainSize()[:groups] {
		values := ds.Dicts[j].Values()
		codes := make([]int32, len(values))
		for v := range codes {
			codes[v] = int32(v)
		}
		slices.SortFunc(codes, func(a, b int32) int { return strings.Compare(values[a], values[b]) })
		for _, v := range codes {
			r := rule.AllWildcards(ds.NumDims())
			r[j] = v
			if r.SupportSize(ds) > 0 {
				rules = append(rules, r)
			}
		}
	}
	return rules
}

// BenchmarkBuildRCT is the RCT work of the last AddRule of income/3000's
// 78-rule prior besides its scan: four blocks' fragments file their tuples
// by the one new bit, and the table is rebuilt in place. Refiling a pass
// whose signatures did not change keeps Extend's premise, so every
// iteration files the same tuples into the same rows.
func BenchmarkBuildRCT(b *testing.B) {
	ds := datagen.Income(3000, 1)
	rules := append([]rule.Rule{rule.AllWildcards(ds.NumDims())}, incomePrior(ds, 9)...)
	const blocks = 4
	words, n, last := (len(rules)+63)/64, ds.NumRows(), len(rules)-1
	ba := make([]uint64, n*words)
	for r, ru := range rules {
		for i := range n {
			if ru.MatchesRow(ds, i) {
				ba[i*words+r/64] |= 1 << (uint(r) % 64)
			}
		}
	}
	frags := make([]*Fragment, blocks)
	for bi := range frags {
		frags[bi] = new(Fragment)
	}
	pass := func(lo, hi int) {
		for bi, f := range frags {
			f.Extend(lo, hi)
			for i := bi * n / blocks; i < (bi+1)*n/blocks; i++ {
				f.Add(ba[i*words:(i+1)*words], ds.Measure[i], 1)
			}
		}
	}
	pass(0, last+1)
	var t RCT
	b.ResetTimer()
	for range b.N {
		pass(last, last+1)
		t.Build(words, frags...)
	}
	b.ReportMetric(float64(t.Len()), "rows")
}

// BenchmarkRCTPriorFit fits income/3000's 78-rule exploration prior one
// AddRule at a time, as a prepared exploration seeds it: 79 scans, RCT
// builds and scaling runs.
func BenchmarkRCTPriorFit(b *testing.B) {
	ds := datagen.Income(3000, 1)
	rules := append([]rule.Rule{rule.AllWildcards(ds.NumDims())}, incomePrior(ds, 9)...)
	_, work := NewTransform(ds.Measure)
	b.ResetTimer()
	for range b.N {
		s := NewRCTScaler(ds, work, len(rules))
		for _, r := range rules {
			if _, err := s.AddRule(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
