package maxent

import (
	"fmt"
	"slices"

	"sirum/internal/bitset"
	"sirum/internal/dataset"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// MaxRCTRules caps the rule-list width of the RCT scaler. The thesis assumes
// at most ~50 rules for interpretability; multi-rule* variants can exceed
// that, so the cap is generous. Coverage bit arrays are stored as flat
// uint64 words, MaxRCTRules/64 words per tuple.
const MaxRCTRules = 512

// rctRow is one row of the Rule Coverage Table (Table 4.1): a subset of D,
// pairwise disjoint with every other row, identified by the exact set of
// rules its tuples match. All tuples in the row share the same estimate
// Π_{i∈BA} λ(rᵢ), so SUM(m̂) updates multiplicatively.
type rctRow struct {
	ba      []uint64
	count   int
	sumM    float64
	sumMhat float64
}

// RCTScaler implements Algorithm 3: per-tuple coverage bit arrays plus a
// Rule Coverage Table so that iterative scaling touches D only twice per
// rule added — once to extend the bit arrays and build the RCT, once to
// write the converged estimates back — instead of twice per scaling loop.
type RCTScaler struct {
	ds   *dataset.Dataset
	work []float64
	mhat []float64

	rules   []rule.Rule
	lambda  []float64
	targets []float64
	counts  []int

	words int      // words per bit array, fixed at construction
	ba    []uint64 // len = rows*words; tuple i owns ba[i*words : (i+1)*words]

	rct map[string]*rctRow

	Epsilon  float64
	MaxLoops int
	Reg      *metrics.Registry

	// OnRCTBuilt, if set, is invoked after the group-by pass of AddRule
	// (line 6 of Algorithm 3) with the freshly built table, before any
	// scaling happens — the state Table 4.1 of the thesis depicts.
	OnRCTBuilt func([]RCTRow)
}

// NewRCTScaler builds an RCT scaler over ds with the given transformed
// measure column. maxRules bounds the number of rules ever added (use the
// miner's k plus slack); it is capped at MaxRCTRules.
func NewRCTScaler(ds *dataset.Dataset, work []float64, maxRules int) *RCTScaler {
	if maxRules <= 0 {
		maxRules = 64
	}
	if maxRules > MaxRCTRules {
		maxRules = MaxRCTRules
	}
	words := (maxRules + 63) / 64
	mhat := make([]float64, len(work))
	for i := range mhat {
		mhat[i] = 1
	}
	return &RCTScaler{
		ds:       ds,
		work:     work,
		mhat:     mhat,
		words:    words,
		ba:       make([]uint64, ds.NumRows()*words),
		rct:      make(map[string]*rctRow),
		Epsilon:  DefaultEpsilon,
		MaxLoops: DefaultMaxLoops,
	}
}

// Mhat returns the live estimate column.
func (s *RCTScaler) Mhat() []float64 { return s.mhat }

// Rules returns the rules added so far.
func (s *RCTScaler) Rules() []rule.Rule { return s.rules }

// Lambdas returns the rule multipliers.
func (s *RCTScaler) Lambdas() []float64 { return s.lambda }

// Targets returns m(r) for each rule on the transformed scale.
func (s *RCTScaler) Targets() []float64 { return s.targets }

// Counts returns |S_D(r)| for each rule.
func (s *RCTScaler) Counts() []int { return s.counts }

// NumRCTRows exposes the current table size (for tests and the space
// analysis of Section 4.1).
func (s *RCTScaler) NumRCTRows() int { return len(s.rct) }

// RCTRow describes one row of the coverage table for inspection.
type RCTRow struct {
	BA      string // bit string, first rule leftmost, e.g. "1100"
	Count   int
	SumM    float64
	SumMhat float64
}

// Snapshot returns the current RCT contents (order unspecified), used by the
// Table 4.1 golden test and the data-quality example.
func (s *RCTScaler) Snapshot() []RCTRow {
	out := make([]RCTRow, 0, len(s.rct))
	for _, row := range s.rct {
		bs := make([]byte, len(s.rules))
		for i := range s.rules {
			if row.ba[i/64]&(1<<(uint(i)%64)) != 0 {
				bs[i] = '1'
			} else {
				bs[i] = '0'
			}
		}
		//sirum:allow zerocopykey deliberate copy: Snapshot is a cold inspection path and each row owns its string
		out = append(out, RCTRow{BA: string(bs), Count: row.count, SumM: row.sumM, SumMhat: row.sumMhat})
	}
	return out
}

// appendBAKey appends the map-key encoding of a coverage bit array (8
// little-endian bytes per word) to dst. Reusing dst keeps the per-tuple
// group-by and write-back loops allocation-free.
func appendBAKey(dst []byte, words []uint64) []byte {
	return bitset.FromWords(len(words)*64, words).AppendKey(dst)
}

// AddRule implements Scaler: lines 1–6 of Algorithm 3 extend the bit arrays
// and rebuild the RCT with one pass over D, the scaling loop runs entirely
// on the RCT, and convergence triggers the single write-back pass.
func (s *RCTScaler) AddRule(r rule.Rule) (ScaleStats, error) {
	w := len(s.rules)
	if w >= s.words*64 {
		return ScaleStats{}, fmt.Errorf("maxent: RCT scaler capacity %d rules exceeded", s.words*64)
	}
	// Pass 1 over D: set bit w for covered tuples, compute the target, and
	// group by bit array to build the RCT.
	var sum float64
	count := 0
	s.rct = make(map[string]*rctRow, 2*len(s.rct)+1)
	word, bit := w/64, uint64(1)<<(uint(w)%64)
	keyBuf := make([]byte, 0, s.words*8)
	for i := 0; i < s.ds.NumRows(); i++ {
		bai := s.ba[i*s.words : (i+1)*s.words]
		if r.MatchesRow(s.ds, i) {
			bai[word] |= bit
			sum += s.work[i]
			count++
		}
		// Scratch-buffer key: lookups via string(keyBuf) do not allocate,
		// so only first-seen signatures pay a string.
		keyBuf = appendBAKey(keyBuf[:0], bai)
		row, ok := s.rct[string(keyBuf)]
		if !ok {
			row = &rctRow{ba: append([]uint64(nil), bai...)}
			s.rct[string(keyBuf)] = row
		}
		row.count++
		row.sumM += s.work[i]
		row.sumMhat += s.mhat[i]
	}
	if count == 0 {
		// Roll back: no bit was set, so the RCT rebuild is still valid.
		return ScaleStats{}, fmt.Errorf("maxent: rule %v has empty support", r)
	}
	s.rules = append(s.rules, r.Clone())
	s.lambda = append(s.lambda, 1)
	s.targets = append(s.targets, sum/float64(count))
	s.counts = append(s.counts, count)
	if s.OnRCTBuilt != nil {
		s.OnRCTBuilt(s.Snapshot())
	}

	st, err := s.scale()
	st.DataScans = 2
	if err != nil {
		return st, err
	}
	// Write-back pass (lines 23–25): every tuple's estimate is the product
	// of the multipliers of the rules it matches; tuples sharing a bit
	// array share the estimate, so compute one product per RCT row.
	if s.words == 1 {
		// Word64 fast path: with the rule list in one machine word, key the
		// estimate table directly by the coverage word.
		est := make(map[uint64]float64, len(s.rct))
		for _, row := range s.rct {
			est[row.ba[0]] = s.productOf(row.ba)
		}
		for i, w := range s.ba {
			s.mhat[i] = est[w]
		}
	} else {
		est := make(map[string]float64, len(s.rct))
		for key, row := range s.rct {
			est[key] = s.productOf(row.ba)
		}
		for i := 0; i < s.ds.NumRows(); i++ {
			keyBuf = appendBAKey(keyBuf[:0], s.ba[i*s.words:(i+1)*s.words])
			s.mhat[i] = est[string(keyBuf)]
		}
	}
	if s.Reg != nil {
		s.Reg.Add(metrics.CtrScanRows, int64(2*s.ds.NumRows()))
	}
	return st, nil
}

// productOf multiplies the lambdas of the rules whose coverage bits are set,
// walking only the set bits instead of testing every rule.
func (s *RCTScaler) productOf(ba []uint64) float64 {
	p := 1.0
	bitset.FromWords(len(s.rules), ba).ForEachSet(func(i int) {
		p *= s.lambda[i]
	})
	return p
}

// scale runs the Algorithm 3 loop over the RCT only.
func (s *RCTScaler) scale() (ScaleStats, error) {
	var st ScaleStats
	// Rows in coverage-signature order, not map order: the per-rule sums
	// below then add in one order every run, so equal fits scale along the
	// same path and converge to the same bits.
	keys := make([]string, 0, len(s.rct))
	for key := range s.rct {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	rows := make([]*rctRow, len(keys))
	for i, key := range keys {
		rows[i] = s.rct[key]
	}
	diffs := make([]float64, len(s.rules))
	mhatAvg := make([]float64, len(s.rules))
	for st.Loops = 0; st.Loops < s.MaxLoops; st.Loops++ {
		// Line 10: merge partial aggregates from rows covering each rule.
		for ri := range s.rules {
			word, bit := ri/64, uint64(1)<<(uint(ri)%64)
			var sum float64
			for _, row := range rows {
				if row.ba[word]&bit != 0 {
					sum += row.sumMhat
				}
			}
			mhatAvg[ri] = sum / float64(s.counts[ri])
			diffs[ri] = relDiff(s.targets[ri], mhatAvg[ri])
		}
		next := 0
		for ri := 1; ri < len(diffs); ri++ {
			if diffs[ri] > diffs[next] {
				next = ri
			}
		}
		if diffs[next] <= s.Epsilon {
			st.Converged = true
			break
		}
		ratio := scaleRatio(s.targets[next], mhatAvg[next])
		s.lambda[next] *= ratio
		// Lines 17–21: update only the affected RCT rows.
		word, bit := next/64, uint64(1)<<(uint(next)%64)
		for _, row := range rows {
			if row.ba[word]&bit != 0 {
				row.sumMhat *= ratio
			}
		}
		if s.Reg != nil {
			s.Reg.Add(metrics.CtrScalingLoops, 1)
		}
	}
	if !st.Converged {
		return st, fmt.Errorf("maxent: RCT iterative scaling did not converge in %d loops", s.MaxLoops)
	}
	return st, nil
}
