package miner

import (
	"fmt"
	"math"
	"slices"

	"sirum/internal/bitset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// distScaler is the distributed counterpart of maxent.Scaler: it maintains
// the estimate columns of the cached data blocks and rescales them to
// convergence whenever rules are appended. Implementations must leave every
// block's Mhat column consistent with the converged multipliers.
type distScaler interface {
	// AddRules appends the rules (jointly, as one multi-rule iteration) and
	// rescales. It returns the per-rule targets m(r) (transformed scale)
	// and support counts for the new rules.
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

// chargeJoin models the join of a small relation (the sample, the rule list)
// with D: Naive SIRUM repartitions D, BJ SIRUM broadcasts the small side.
func (s *scalerBase) chargeJoin(smallBytes int64) {
	if s.shuffle {
		s.c.Repartition(s.dataBytes, 0)
	} else {
		s.c.Broadcast(smallBytes)
	}
}

// ruleListBytes approximates the broadcast payload of the rule list.
func (s *scalerBase) ruleListBytes() int64 {
	if len(s.rules) == 0 {
		return 0
	}
	return int64(len(s.rules)) * int64(len(s.rules[0])) * 4
}

// registerRules appends the rules after computing their targets with one
// scan, rejecting empty supports.
func (s *scalerBase) registerRules(rs []rule.Rule) error {
	type sums struct {
		m     float64
		count float64
	}
	perBlock := make([][]sums, s.data.NumBlocks())
	s.chargeJoin(int64(len(rs)) * int64(len(rs[0])) * 4)
	err := s.data.Scan("scaling/targets", false, func(bi int, b *engine.TupleBlock) {
		local := make([]sums, len(rs))
		for i := 0; i < b.NumRows(); i++ {
			for ri, r := range rs {
				if matchesBlockRow(r, b, i) {
					local[ri].m += b.M[i]
					local[ri].count++
				}
			}
		}
		perBlock[bi] = local
	})
	if err != nil {
		return err
	}
	for ri, r := range rs {
		var total sums
		for _, local := range perBlock {
			total.m += local[ri].m
			total.count += local[ri].count
		}
		if total.count == 0 {
			return fmt.Errorf("miner: rule %v has empty support", r)
		}
		s.rules = append(s.rules, r.Clone())
		s.lambda = append(s.lambda, 1)
		s.targets = append(s.targets, total.m/total.count)
		s.counts = append(s.counts, total.count)
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
	if err := s.registerRules(rs); err != nil {
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
	return s.scale()
}

func (s *naiveDistScaler) scale() error {
	nr := len(s.rules)
	for loop := 0; loop < s.maxLoops; loop++ {
		// Lines 3–6 of Algorithm 1, distributed: per-block partial sums of
		// the estimates covered by each rule.
		s.chargeJoin(s.ruleListBytes())
		partial := make([][]float64, s.data.NumBlocks())
		err := s.data.Scan("scaling/sums", false, func(bi int, b *engine.TupleBlock) {
			local := make([]float64, nr)
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
		next, worst := -1, 0.0
		var nextRatio float64
		for ri := 0; ri < nr; ri++ {
			var sum float64
			for _, local := range partial {
				sum += local[ri]
			}
			est := sum / s.counts[ri]
			d := relDiff(s.targets[ri], est)
			if d > worst {
				worst, next = d, ri
				nextRatio = scaleRatio(s.targets[ri], est)
			}
		}
		s.c.Reg().Add(metrics.CtrScalingLoops, 1)
		if next < 0 || worst <= s.epsilon {
			return nil
		}
		// Lines 9–12: scale and update the covered estimates.
		s.lambda[next] *= nextRatio
		target := s.rules[next]
		if err := s.data.Scan("scaling/update", true, func(_ int, b *engine.TupleBlock) {
			for i := 0; i < b.NumRows(); i++ {
				if matchesBlockRow(target, b, i) {
					b.Mhat[i] *= nextRatio
				}
			}
		}); err != nil {
			return err
		}
	}
	return fmt.Errorf("miner: iterative scaling did not converge in %d loops", s.maxLoops)
}

// rctDistScaler runs Algorithm 3 with distributed coverage bit arrays: D is
// scanned twice per AddRules call no matter how many loops the (driver-side,
// RCT-sized) scaling takes.
type rctDistScaler struct {
	scalerBase
	words int // bit-array words per tuple
}

func newRCTDistScaler(c engine.Backend, data *engine.CachedData, dataBytes int64, epsilon float64, maxRules int) *rctDistScaler {
	if maxRules <= 0 {
		maxRules = 64
	}
	return &rctDistScaler{
		scalerBase: scalerBase{
			c: c, data: data, epsilon: epsilon, maxLoops: maxent.DefaultMaxLoops,
			dataBytes: dataBytes,
		},
		words: (maxRules + 63) / 64,
	}
}

// rctAgg is one driver-side RCT row.
type rctAgg struct {
	ba      []uint64
	count   float64
	sumMhat float64
}

func (s *rctDistScaler) AddRules(rs []rule.Rule) error {
	base := len(s.rules)
	if base+len(rs) > s.words*64 {
		return fmt.Errorf("miner: RCT capacity %d rules exceeded", s.words*64)
	}
	s.chargeJoin(int64(len(rs)) * int64(len(rs[0])) * 4)
	// Pass 1 (lines 1–6): set the new coverage bits, compute targets, and
	// build per-block RCT fragments.
	type blockOut struct {
		rct    map[string]*rctAgg
		sums   []float64
		counts []float64
	}
	outs := make([]blockOut, s.data.NumBlocks())
	err := s.data.Scan("scaling/rct-build", true, func(bi int, b *engine.TupleBlock) {
		if b.BAW != s.words {
			// First time this block carries coverage bits (or it was built
			// before the scaler dimensioned them).
			b.BAW = s.words
			b.BA = make([]uint64, b.NumRows()*s.words)
		}
		o := blockOut{rct: make(map[string]*rctAgg), sums: make([]float64, len(rs)), counts: make([]float64, len(rs))}
		keyBuf := make([]byte, 0, s.words*8)
		for i := 0; i < b.NumRows(); i++ {
			ba := b.BA[i*s.words : (i+1)*s.words]
			for ri, r := range rs {
				if matchesBlockRow(r, b, i) {
					w := base + ri
					ba[w/64] |= 1 << (uint(w) % 64)
					o.sums[ri] += b.M[i]
					o.counts[ri]++
				}
			}
			// Scratch-buffer key: the map lookup via string(keyBuf) does
			// not allocate, so only first-seen signatures pay a string.
			keyBuf = appendBAKey(keyBuf[:0], ba)
			row, ok := o.rct[string(keyBuf)]
			if !ok {
				row = &rctAgg{ba: append([]uint64(nil), ba...)}
				o.rct[string(keyBuf)] = row
			}
			row.count++
			row.sumMhat += b.Mhat[i]
		}
		outs[bi] = o
	})
	if err != nil {
		return err
	}
	for ri, r := range rs {
		var m, cnt float64
		for _, o := range outs {
			m += o.sums[ri]
			cnt += o.counts[ri]
		}
		if cnt == 0 {
			return fmt.Errorf("miner: rule %v has empty support", r)
		}
		s.rules = append(s.rules, r.Clone())
		s.lambda = append(s.lambda, 1)
		s.targets = append(s.targets, m/cnt)
		s.counts = append(s.counts, cnt)
	}
	// Merge the RCT fragments on the driver (the RCT is small: at most
	// 2^|R| rows, in practice far fewer — Section 4.1).
	rct := make(map[string]*rctAgg)
	var rctBytes int64
	for _, o := range outs {
		for key, row := range o.rct {
			got, ok := rct[key]
			if !ok {
				rct[key] = row
				rctBytes += int64(len(key) + 16)
				continue
			}
			got.count += row.count
			got.sumMhat += row.sumMhat
		}
	}
	s.c.ChargeShuffle(rctBytes, int64(len(rct)))
	if err := s.scaleRCT(rct); err != nil {
		return err
	}
	// Write-back pass (lines 23–25): estimates are per-coverage-signature
	// products of multipliers.
	s.chargeJoin(int64(len(s.lambda)) * 8)
	if s.words == 1 {
		// Word64 fast path: with the rule list in one machine word, key the
		// estimate table directly by the coverage word and skip byte-key
		// encoding entirely.
		est := make(map[uint64]float64, len(rct))
		for _, row := range rct {
			est[row.ba[0]] = s.productOf(row.ba)
		}
		return s.data.Scan("scaling/writeback", true, func(_ int, b *engine.TupleBlock) {
			for i, w := range b.BA {
				b.Mhat[i] = est[w]
			}
		})
	}
	est := make(map[string]float64, len(rct))
	for key, row := range rct {
		est[key] = s.productOf(row.ba)
	}
	return s.data.Scan("scaling/writeback", true, func(_ int, b *engine.TupleBlock) {
		keyBuf := make([]byte, 0, s.words*8)
		for i := 0; i < b.NumRows(); i++ {
			keyBuf = appendBAKey(keyBuf[:0], b.BA[i*s.words:(i+1)*s.words])
			b.Mhat[i] = est[string(keyBuf)]
		}
	})
}

// productOf multiplies the lambdas of the rules whose coverage bits are set,
// walking only the set bits instead of testing every rule.
func (s *rctDistScaler) productOf(ba []uint64) float64 {
	p := 1.0
	bitset.FromWords(len(s.rules), ba).ForEachSet(func(i int) {
		p *= s.lambda[i]
	})
	return p
}

// scaleRCT is the driver-side Algorithm 3 loop over the merged RCT.
func (s *rctDistScaler) scaleRCT(rct map[string]*rctAgg) error {
	// Rows in coverage-signature order, not map order: the per-rule sums
	// below then add in one order every run, so equal queries scale along
	// the same path and converge to the same bits.
	keys := make([]string, 0, len(rct))
	for key := range rct {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	rows := make([]*rctAgg, len(keys))
	for i, key := range keys {
		rows[i] = rct[key]
	}
	nr := len(s.rules)
	for loop := 0; loop < s.maxLoops; loop++ {
		next, worst := -1, 0.0
		var nextRatio float64
		for ri := 0; ri < nr; ri++ {
			word, bit := ri/64, uint64(1)<<(uint(ri)%64)
			var sum float64
			for _, row := range rows {
				if row.ba[word]&bit != 0 {
					sum += row.sumMhat
				}
			}
			est := sum / s.counts[ri]
			d := relDiff(s.targets[ri], est)
			if d > worst {
				worst, next = d, ri
				nextRatio = scaleRatio(s.targets[ri], est)
			}
		}
		s.c.Reg().Add(metrics.CtrScalingLoops, 1)
		if next < 0 || worst <= s.epsilon {
			return nil
		}
		s.lambda[next] *= nextRatio
		word, bit := next/64, uint64(1)<<(uint(next)%64)
		for _, row := range rows {
			if row.ba[word]&bit != 0 {
				row.sumMhat *= nextRatio
			}
		}
	}
	return fmt.Errorf("miner: RCT iterative scaling did not converge in %d loops", s.maxLoops)
}

// appendBAKey appends the map-key encoding of a coverage bit array (8
// little-endian bytes per word) to dst. Reusing dst across rows keeps the
// RCT build and write-back scans allocation-free per row.
func appendBAKey(dst []byte, ba []uint64) []byte {
	return bitset.FromWords(len(ba)*64, ba).AppendKey(dst)
}

// relDiff and scaleRatio mirror maxent's guards.
func relDiff(target, est float64) float64 {
	d := math.Abs(target - est)
	if math.Abs(target) < 1e-12 {
		return d
	}
	return d / math.Abs(target)
}

func scaleRatio(target, est float64) float64 {
	const floor = 1e-12
	if target < floor {
		target = floor
	}
	if est < floor {
		est = floor
	}
	return target / est
}
