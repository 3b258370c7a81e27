package miner

import (
	"fmt"

	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// distScaler is the distributed counterpart of maxent.Scaler: it maintains
// the estimate columns of the cached data blocks and rescales them to
// convergence whenever rules are appended. Implementations must leave every
// block's Mhat column consistent with the converged multipliers.
//
// There is one loop (maxent.Scale) and one RCT (maxent.BuildRCT); the two
// implementations are front ends that differ only in how they scan —
// engine blocks through CachedData.Scan here, dataset rows in maxent. Each
// records its joins and shuffles on the registry and counts
// scaling_loops once per evaluation pass.
type distScaler interface {
	// AddRules appends the rules (jointly, as one multi-rule iteration) and
	// rescales.
	AddRules(rs []rule.Rule) error
	Rules() []rule.Rule
	Lambdas() []float64
}

// scalerBase carries the state shared by both distributed scalers.
type scalerBase struct {
	c        engine.Backend
	data     *engine.CachedData
	epsilon  float64
	maxLoops int

	rules   []rule.Rule
	lambda  []float64
	targets []float64
	counts  []float64

	dataBytes int64 // payload size of D, for join cost accounting
	shuffle   bool  // Naive: repartition D per join instead of broadcasting
}

func (s *scalerBase) Rules() []rule.Rule { return s.rules }

func (s *scalerBase) Lambdas() []float64 { return s.lambda }

// recordJoin records the join of a small relation (the sample, the rule
// list) with D: Naive SIRUM repartitions D (a shuffle), BJ SIRUM broadcasts
// the small side.
func (s *scalerBase) recordJoin(smallBytes int64) {
	if s.shuffle {
		s.c.Reg().Add(metrics.CtrShuffleBytes, s.dataBytes)
	} else {
		s.c.Reg().Add(metrics.CtrBroadcastBytes, smallBytes)
	}
}

// ruleListBytes approximates the broadcast payload of the rule list.
func (s *scalerBase) ruleListBytes() int64 {
	if len(s.rules) == 0 {
		return 0
	}
	return int64(len(s.rules)) * int64(len(s.rules[0])) * 4
}

// targetSums are one block's partial sums of m and |S_D(r)| per new rule.
type targetSums []struct{ m, count float64 }

// scanTargets records the join of the new rules with D and runs one scan
// named stage that tallies each new rule's target. If row is set, it is
// called per tuple with the indices of the new rules covering it. The rules
// are appended once their targets add up in block order; empty supports
// are rejected.
func (s *scalerBase) scanTargets(stage string, rs []rule.Rule, mutate bool,
	row func(bi int, b *engine.TupleBlock, i int, covered []int)) error {
	s.recordJoin(int64(len(rs)) * int64(len(rs[0])) * 4)
	perBlock := make([]targetSums, s.data.NumBlocks())
	err := s.data.Scan(stage, mutate, func(bi int, b *engine.TupleBlock) {
		local := make(targetSums, len(rs))
		var covered []int
		for i := 0; i < b.NumRows(); i++ {
			covered = covered[:0]
			for ri, r := range rs {
				if matchesBlockRow(r, b, i) {
					local[ri].m += b.M[i]
					local[ri].count++
					covered = append(covered, ri)
				}
			}
			if row != nil {
				row(bi, b, i, covered)
			}
		}
		perBlock[bi] = local
	})
	if err != nil {
		return err
	}
	for ri, r := range rs {
		var m, count float64
		for _, local := range perBlock {
			m += local[ri].m
			count += local[ri].count
		}
		if count == 0 {
			return fmt.Errorf("miner: rule %v has empty support", r)
		}
		s.rules = append(s.rules, r.Clone())
		s.lambda = append(s.lambda, 1)
		s.targets = append(s.targets, m/count)
		s.counts = append(s.counts, count)
	}
	return nil
}

// matchesBlockRow tests t ⊨ r against a block's columnar layout.
func matchesBlockRow(r rule.Rule, b *engine.TupleBlock, i int) bool {
	for j, v := range r {
		if v != rule.Wildcard && v != b.Dims[j][i] {
			return false
		}
	}
	return true
}

// naiveDistScaler runs Algorithm 1 with distributed scans: every loop reads
// D twice (estimate sums, then estimate updates), re-evaluating coverage
// attribute by attribute — the behaviour the RCT optimization removes.
type naiveDistScaler struct {
	scalerBase
	resetOnAdd bool
}

func newNaiveDistScaler(c engine.Backend, data *engine.CachedData, dataBytes int64, epsilon float64, shuffleJoin, resetOnAdd bool) *naiveDistScaler {
	return &naiveDistScaler{
		scalerBase: scalerBase{
			c: c, data: data, epsilon: epsilon, maxLoops: maxent.DefaultMaxLoops,
			dataBytes: dataBytes, shuffle: shuffleJoin,
		},
		resetOnAdd: resetOnAdd,
	}
}

func (s *naiveDistScaler) AddRules(rs []rule.Rule) error {
	if err := s.scanTargets("scaling/targets", rs, false, nil); err != nil {
		return err
	}
	if s.resetOnAdd {
		for i := range s.lambda {
			s.lambda[i] = 1
		}
		if err := s.data.Scan("scaling/reset", true, func(_ int, b *engine.TupleBlock) {
			engine.FillFloat64(b.Mhat, 1)
		}); err != nil {
			return err
		}
	}
	_, err := maxent.Scale(s.targets, s.counts, s.lambda, s.epsilon, s.maxLoops,
		func(dst []float64) error {
			// Lines 3–6 of Algorithm 1, distributed: per-block partial sums
			// of the estimates covered by each rule, added in block order.
			s.recordJoin(s.ruleListBytes())
			partial := make([][]float64, s.data.NumBlocks())
			err := s.data.Scan("scaling/sums", false, func(bi int, b *engine.TupleBlock) {
				local := make([]float64, len(s.rules))
				for i := 0; i < b.NumRows(); i++ {
					for ri := range s.rules {
						if matchesBlockRow(s.rules[ri], b, i) {
							local[ri] += b.Mhat[i]
						}
					}
				}
				partial[bi] = local
			})
			if err != nil {
				return err
			}
			for ri := range dst {
				var sum float64
				for _, local := range partial {
					sum += local[ri]
				}
				dst[ri] = sum
			}
			s.c.Reg().Add(metrics.CtrScalingLoops, 1)
			return nil
		},
		func(next int, ratio float64) error {
			// Lines 9–12: update the covered estimates.
			return s.data.Scan("scaling/update", true, func(_ int, b *engine.TupleBlock) {
				for i := 0; i < b.NumRows(); i++ {
					if matchesBlockRow(s.rules[next], b, i) {
						b.Mhat[i] *= ratio
					}
				}
			})
		})
	return err
}

// rctDistScaler runs Algorithm 3 distributed: D is scanned twice per
// AddRules call no matter how many loops the (driver-side, RCT-sized)
// scaling takes. Each block groups its tuples into an RCT fragment; the
// driver merges them into the maxent kernel's RCT. A block's fragment lives
// as long as the scaler, so each call files a tuple by its previous row and
// the new rules it matches (Fragment.Extend); no block carries coverage
// bits. Each loop then costs one step per covered RCT row.
type rctDistScaler struct {
	scalerBase
	words int                // signature words
	frags []*maxent.Fragment // per block, reused across AddRules calls
	rct   maxent.RCT         // rebuilt by each AddRules call in its own storage
}

func newRCTDistScaler(c engine.Backend, data *engine.CachedData, dataBytes int64, epsilon float64, maxRules int) *rctDistScaler {
	return &rctDistScaler{
		scalerBase: scalerBase{
			c: c, data: data, epsilon: epsilon, maxLoops: maxent.DefaultMaxLoops,
			dataBytes: dataBytes,
		},
		words: max(1, (maxRules+63)/64),
	}
}

func (s *rctDistScaler) AddRules(rs []rule.Rule) error {
	base := len(s.rules)
	if base+len(rs) > s.words*64 {
		return fmt.Errorf("miner: RCT capacity %d rules exceeded", s.words*64)
	}
	for len(s.frags) < s.data.NumBlocks() {
		s.frags = append(s.frags, new(maxent.Fragment))
	}
	for _, f := range s.frags {
		f.Extend(s.words, base, base+len(rs))
	}
	// Pass 1 (lines 1–6): compute targets and file each tuple by the new
	// rules it matches into its block's RCT fragment.
	err := s.scanTargets("scaling/rct-build", rs, false, func(bi int, b *engine.TupleBlock, i int, covered []int) {
		s.frags[bi].Add(covered, b.M[i], b.Mhat[i])
	})
	if err != nil {
		return err
	}
	// Merge the fragments on the driver (the RCT is small: at most 2^|R|
	// rows, in practice far fewer — Section 4.1).
	rct := &s.rct
	rct.Build(s.words, s.frags[:s.data.NumBlocks()]...)
	s.c.Reg().Add(metrics.CtrShuffleBytes, int64(rct.Len()*(8*s.words+16)))
	s.c.Reg().Add(metrics.CtrShuffleRecords, int64(rct.Len()))
	_, err = maxent.Scale(s.targets, s.counts, s.lambda, s.epsilon, s.maxLoops,
		func(dst []float64) error {
			rct.Sums(dst)
			s.c.Reg().Add(metrics.CtrScalingLoops, 1)
			return nil
		},
		func(next int, ratio float64) error { rct.Rescale(next, ratio); return nil })
	if err != nil {
		return err
	}
	// Write-back pass (lines 23–25): each tuple takes its row's product of
	// multipliers.
	s.recordJoin(int64(len(s.lambda)) * 8)
	est := rct.Products(s.lambda)
	return s.data.Scan("scaling/writeback", true, func(bi int, b *engine.TupleBlock) {
		s.frags[bi].WriteBack(est, b.Mhat)
	})
}
