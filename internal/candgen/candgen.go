// Package candgen implements SIRUM's candidate rule generation: sample-based
// candidate pruning (Section 3.1.1), its inverted-index acceleration
// (Section 4.2), the sample-count fix-up of the aggregates, exhaustive
// candidate enumeration, and distributed top-k selection by information
// gain.
//
// There are two concrete pipelines, one per schema kind (see internal/cube):
// this file holds the string-key one for schemas of any width — LCAParts or
// ExhaustiveParts, cube.Compute, AdjustForSample, TopByGain over per-partition
// Go maps — and tables.go the packed one over arena-recycled flat tables and
// the frozen lattice, allocation-free end to end, for schemas whose keys fit
// 64 bits. StringCodec and PackedCodec bind each key representation to rule
// encoding and to the leaf-instance enumeration the miner's LCA memo builds
// on; scored candidates (Candidate) and the top-k merge are shared.
package candgen

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"sirum/internal/cube"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// Sample is the broadcast random sample s drawn from D: |s| dimension-code
// rows plus per-attribute domain sizes for index construction.
type Sample struct {
	D       int
	Rows    [][]int32
	Domains []int
}

// DrawSample projects n uniformly sampled rows of ds onto their dimension
// codes. All rows share one flat backing array — one allocation instead of
// one per row.
func DrawSample(ds *dataset.Dataset, r *rand.Rand, n int) *Sample {
	sub := ds.Sample(r, n)
	d := ds.NumDims()
	s := &Sample{D: d, Domains: ds.DomainSizes()}
	rows := sub.NumRows()
	s.Rows = make([][]int32, rows)
	flat := make([]int32, rows*d)
	for i := 0; i < rows; i++ {
		row, _ := sub.Row(i, flat[i*d:(i+1)*d])
		s.Rows[i] = row
	}
	return s
}

// Bytes estimates the broadcast payload of the sample.
func (s *Sample) Bytes() int64 { return int64(len(s.Rows)) * int64(s.D) * 4 }

// Size returns |s|.
func (s *Sample) Size() int { return len(s.Rows) }

// MatchCount returns the number of sample tuples covered by r, the divisor
// of the aggregate fix-up.
func (s *Sample) MatchCount(r rule.Rule) int {
	n := 0
	for _, row := range s.Rows {
		if r.MatchesCodes(row) {
			n++
		}
	}
	return n
}

// InvertedIndex is the per-attribute index over the sample of Section 4.2:
// for attribute j and value code v, Posting(j, v) lists the sample rows with
// that value. Dictionary codes are dense, so postings are slice-indexed.
type InvertedIndex struct {
	d        int
	postings [][][]int32 // postings[j][v] = sample row ids
}

// BuildIndex constructs the inverted index for s.
func BuildIndex(s *Sample) *InvertedIndex {
	ix := &InvertedIndex{d: s.D, postings: make([][][]int32, s.D)}
	for j := 0; j < s.D; j++ {
		ix.postings[j] = make([][]int32, s.Domains[j])
	}
	for si, row := range s.Rows {
		for j, v := range row {
			ix.postings[j][v] = append(ix.postings[j][v], int32(si))
		}
	}
	return ix
}

// Posting returns the sample rows holding value v in attribute j.
func (ix *InvertedIndex) Posting(j int, v int32) []int32 {
	p := ix.postings[j]
	if v < 0 || int(v) >= len(p) {
		return nil
	}
	return p[v]
}

// Bytes estimates the broadcast payload of the index (postings plus sample).
func (ix *InvertedIndex) Bytes() int64 {
	var n int64
	for _, attr := range ix.postings {
		for _, post := range attr {
			n += int64(len(post)) * 4
		}
		n += int64(len(attr)) * 8
	}
	return n
}

// StringCodec is the key representation of the string pipeline: rule.Key
// strings of 4 bytes per attribute, valid for any arity D.
type StringCodec struct{ D int }

// NewStringCodec returns the string codec for arity d.
func NewStringCodec(d int) StringCodec { return StringCodec{D: d} }

// EncodeRule returns r's key.
func (c StringCodec) EncodeRule(r rule.Rule) (string, error) { return r.Key(), nil }

// DecodeRule decodes key into dst (allocated when too small).
func (c StringCodec) DecodeRule(key string, dst rule.Rule) (rule.Rule, error) {
	return rule.DecodeKey(key, c.D, dst)
}

// ForEachLeafKey enumerates a block's leaf instances row by row, in
// ascending row order: emit gets each row with its leaf keys — the tuple's
// own instance when s is nil, else its |s| LCAs in sample order (ix must
// index s). keys is reused between rows. The miner's LCA memo builds on
// this. It returns the comparisons the indexed LCA scan counts for the same
// block (lcaIndexed), 0 when s is nil. The string path pays one key
// allocation per leaf; only the once-per-space memo build uses it.
func (c StringCodec) ForEachLeafKey(b *engine.TupleBlock, s *Sample, ix *InvertedIndex, emit func(row int, keys []string)) int64 {
	d := c.D
	if s == nil {
		key := make(rule.Rule, d)
		keys := make([]string, 1)
		for i := 0; i < b.NumRows(); i++ {
			for j := 0; j < d; j++ {
				key[j] = b.Dims[j][i]
			}
			keys[0] = key.Key()
			emit(i, keys)
		}
		return 0
	}
	ns := s.Size()
	template := make([]int32, ns*d)
	for i := range template {
		template[i] = rule.Wildcard
	}
	buf := make([]int32, ns*d)
	keys := make([]string, ns)
	var ops int64
	for i := 0; i < b.NumRows(); i++ {
		copy(buf, template)
		for j := 0; j < d; j++ {
			v := b.Dims[j][i]
			post := ix.Posting(j, v)
			ops += 1 + int64(len(post))
			for _, si := range post {
				buf[int(si)*d+j] = v
			}
		}
		for si := range keys {
			keys[si] = rule.Rule(buf[si*d : (si+1)*d]).Key()
		}
		emit(i, keys)
	}
	return ops
}

// PackedCodec is the key representation of the table pipeline: single-word
// keys from a rule.Packer.
type PackedCodec struct{ cube.PackedKeys }

// NewPackedCodec returns the packed codec over p.
func NewPackedCodec(p *rule.Packer) PackedCodec { return PackedCodec{cube.PackedKeys{P: p}} }

// EncodeRule returns r's key.
func (c PackedCodec) EncodeRule(r rule.Rule) (uint64, error) { return c.P.Pack(r) }

// DecodeRule decodes key into dst (allocated when too small).
func (c PackedCodec) DecodeRule(key uint64, dst rule.Rule) (rule.Rule, error) {
	return c.P.Unpack(key, dst)
}

// ForEachLeafKey is StringCodec.ForEachLeafKey in packed keys; allocation-free.
// The packed per-round scans (ExhaustiveTables, indexed LCATables) add its
// leaves into tables, so a memo build and one LCA pass see the same keys and
// count the same comparisons.
func (c PackedCodec) ForEachLeafKey(b *engine.TupleBlock, s *Sample, ix *InvertedIndex, emit func(row int, keys []uint64)) int64 {
	p := c.P
	d := len(b.Dims)
	if s == nil {
		codes := make(rule.Rule, d)
		keys := make([]uint64, 1)
		for i := 0; i < b.NumRows(); i++ {
			for j := 0; j < d; j++ {
				codes[j] = b.Dims[j][i]
			}
			keys[0] = p.PackCodes(codes)
			emit(i, keys)
		}
		return 0
	}
	wild := p.AllWildcards()
	keys := make([]uint64, s.Size())
	var ops int64
	for i := 0; i < b.NumRows(); i++ {
		for si := range keys {
			keys[si] = wild
		}
		for j := 0; j < d; j++ {
			v := b.Dims[j][i]
			post := ix.Posting(j, v)
			ops += 1 + int64(len(post))
			for _, si := range post {
				keys[si] = p.Set(keys[si], j, v)
			}
		}
		emit(i, keys)
	}
	return ops
}

// LCAParts computes the locally combined LCA aggregates LCA(s, D): for every
// (sample tuple, data tuple) pair, the least common ancestor keyed by rule,
// carrying (t[m], t[m̂], 1). One output map per data block. When indexed is
// true the inverted-index strategy of Section 4.2 replaces the attribute-by-
// attribute cross product; both strategies produce identical output, and the
// comparison counter records the work saved. A prepare-once session passes
// its prebuilt index as ix so repeated rounds skip reconstruction; pass nil
// to build one on the fly.
func LCAParts(c engine.Backend, data *engine.CachedData, s *Sample, indexed bool, ix *InvertedIndex) (*engine.PColl[map[string]cube.Agg], error) {
	if s.Size() == 0 {
		return nil, fmt.Errorf("candgen: empty sample")
	}
	if indexed {
		if ix == nil {
			ix = BuildIndex(s)
		}
		c.Reg().Add(metrics.CtrBroadcastBytes, ix.Bytes()+s.Bytes())
	} else {
		c.Reg().Add(metrics.CtrBroadcastBytes, s.Bytes())
	}
	out := make([]map[string]cube.Agg, data.NumBlocks())
	comparisons := make([]int64, data.NumBlocks())
	err := data.Scan("candgen/lca", false, func(bi int, b *engine.TupleBlock) {
		local := cube.NewAggTable(b.NumRows())
		if indexed {
			comparisons[bi] = lcaIndexed(b, s, ix, local)
		} else {
			comparisons[bi] = lcaNaive(b, s, local)
		}
		out[bi] = local.Map()
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range comparisons {
		total += n
	}
	c.Reg().Add(metrics.CtrLCAComparisons, total)
	return engine.NewPColl(out), nil
}

// lcaNaive computes each pair's LCA with d attribute comparisons, keying the
// aggregate table through one scratch buffer.
func lcaNaive(b *engine.TupleBlock, s *Sample, local *cube.AggTable) int64 {
	d := len(b.Dims)
	lca := make(rule.Rule, d)
	keyBuf := make([]byte, 0, d*4)
	var comps int64
	for i := 0; i < b.NumRows(); i++ {
		agg := cube.Agg{SumM: b.M[i], SumMhat: b.Mhat[i], Count: 1}
		for _, srow := range s.Rows {
			for j := 0; j < d; j++ {
				if srow[j] == b.Dims[j][i] {
					lca[j] = srow[j]
				} else {
					lca[j] = rule.Wildcard
				}
			}
			comps += int64(d)
			keyBuf = lca.AppendKey(keyBuf[:0])
			local.Add(keyBuf, agg)
		}
	}
	return comps
}

// lcaIndexed initializes all |s| LCAs of a tuple to all-wildcards and uses
// the index to write back only the agreeing constants (Section 4.2): one
// lookup per attribute plus one write per agreement, instead of |s|·d
// comparisons.
func lcaIndexed(b *engine.TupleBlock, s *Sample, ix *InvertedIndex, local *cube.AggTable) int64 {
	d := len(b.Dims)
	ns := s.Size()
	template := make([]int32, ns*d)
	for i := range template {
		template[i] = rule.Wildcard
	}
	buf := make([]int32, ns*d)
	keyBuf := make([]byte, 0, d*4)
	var ops int64
	for i := 0; i < b.NumRows(); i++ {
		copy(buf, template)
		for j := 0; j < d; j++ {
			v := b.Dims[j][i]
			ops++ // one index lookup per attribute
			for _, si := range ix.Posting(j, v) {
				buf[int(si)*d+j] = v
				ops++
			}
		}
		agg := cube.Agg{SumM: b.M[i], SumMhat: b.Mhat[i], Count: 1}
		for si := 0; si < ns; si++ {
			keyBuf = rule.Rule(buf[si*d : (si+1)*d]).AppendKey(keyBuf[:0])
			local.Add(keyBuf, agg)
		}
	}
	return ops
}

// AdjustForSample applies the fix-up of Section 3.1.1: a candidate covering
// c sample tuples received every covered data tuple's contribution c times,
// so its aggregates are divided by c. After adjustment, SumM and Count equal
// the candidate's true support sums over D. Candidates covering no sample
// tuple cannot exist (every candidate is an ancestor of an LCA, hence of a
// sample tuple); they indicate corruption and surface as an error rather
// than a worker panic.
func AdjustForSample(c engine.Backend, candidates *engine.PColl[map[string]cube.Agg], s *Sample, codec StringCodec) (*engine.PColl[map[string]cube.Agg], error) {
	c.Reg().Add(metrics.CtrBroadcastBytes, s.Bytes())
	out := make([]map[string]cube.Agg, candidates.NumParts())
	errs := make([]error, candidates.NumParts())
	c.RunStage("candgen/adjust", candidates.NumParts(), func(i int) {
		part := candidates.Part(i)
		adj := make(map[string]cube.Agg, len(part))
		buf := make(rule.Rule, codec.D)
		for key, agg := range part {
			r, err := codec.DecodeRule(key, buf)
			if err != nil {
				errs[i] = fmt.Errorf("candgen: corrupt candidate key: %w", err)
				return
			}
			buf = r
			mc := s.MatchCount(r)
			if mc == 0 {
				errs[i] = fmt.Errorf("candgen: candidate %v covers no sample tuple", r.Clone())
				return
			}
			f := float64(mc)
			adj[key] = cube.Agg{SumM: agg.SumM / f, SumMhat: agg.SumMhat / f, Count: agg.Count / f}
		}
		out[i] = adj
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return engine.NewPColl(out), nil
}

// ExhaustiveParts turns every data tuple into a full-constant rule instance,
// the input for exhaustive candidate exploration (no sampling; the MIR
// baseline of Section 3.1.1 and the cube-exploration application).
func ExhaustiveParts(c engine.Backend, data *engine.CachedData) (*engine.PColl[map[string]cube.Agg], error) {
	out := make([]map[string]cube.Agg, data.NumBlocks())
	err := data.Scan("candgen/exhaustive", false, func(bi int, b *engine.TupleBlock) {
		local := cube.NewAggTable(b.NumRows())
		d := len(b.Dims)
		key := make(rule.Rule, d)
		keyBuf := make([]byte, 0, d*4)
		for i := 0; i < b.NumRows(); i++ {
			for j := 0; j < d; j++ {
				key[j] = b.Dims[j][i]
			}
			keyBuf = key.AppendKey(keyBuf[:0])
			local.Add(keyBuf, cube.Agg{SumM: b.M[i], SumMhat: b.Mhat[i], Count: 1})
		}
		out[bi] = local.Map()
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}

// Candidate is a scored candidate rule in either key representation; the
// cmp.Ordered bound gives top-k selection its deterministic tie-break.
type Candidate[K cmp.Ordered] struct {
	Key  K
	Gain float64
	Agg  cube.Agg
}

// candHeap is a min-heap by gain used for per-partition top-n. Its sifts are
// container/heap's, step for step, so a partition keeps the same members
// among equal gains as a heap.Interface would; typed, they box nothing.
type candHeap[K cmp.Ordered] []Candidate[K]

// consider scores a candidate with the information-gain estimate (Equation
// 2.2) and offers it when the gain is positive. The gain is positive only
// when Σm > Σm̂, so other candidates skip the logarithm. And ln x ≤ x − 1
// bounds it by Σm·(Σm − Σm̂)/Σm̂, so once the heap is full a candidate whose
// bound falls clearly short of the heap's minimum skips it too: short by a
// relative 1e-9, far above the bound's few ulps of rounding, plus Σm·1e-14,
// far above the logarithm's absolute rounding (≈ 1e-16) times Σm, so a
// skipped candidate's computed gain could never have entered the heap.
func (h *candHeap[K]) consider(n int, key K, agg cube.Agg) {
	if !(agg.SumM > agg.SumMhat) {
		return
	}
	if len(*h) == n && agg.SumMhat > 0 {
		bound := agg.SumM * (agg.SumM - agg.SumMhat) / agg.SumMhat
		if bound*(1+1e-9)+agg.SumM*1e-14 < (*h)[0].Gain {
			return
		}
	}
	if g := maxent.Gain(agg.SumM, agg.SumMhat); g > 0 {
		h.offer(n, Candidate[K]{Key: key, Gain: g, Agg: agg})
	}
}

// offer keeps c if it belongs to the top n seen so far: heap.Push while the
// heap is short, else, when c beats the minimum, replace it and heap.Fix(0).
func (h *candHeap[K]) offer(n int, c Candidate[K]) {
	if len(*h) < n {
		*h = append(*h, c)
		h.up(len(*h) - 1)
	} else if c.Gain > (*h)[0].Gain {
		(*h)[0] = c
		h.down(0)
	}
}

// up is container/heap's up with Less(i, j) = h[i].Gain < h[j].Gain.
func (h candHeap[K]) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].Gain < h[i].Gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down is container/heap's down over the whole heap.
func (h candHeap[K]) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].Gain < h[j].Gain {
			j = j2
		}
		if !(h[j].Gain < h[i].Gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// sorted orders the heap's candidates by rank — descending gain, ascending
// key among equal gains — in place, and returns them.
func (h candHeap[K]) sorted() []Candidate[K] {
	slices.SortFunc(h, byRank[K])
	return h
}

// byRank orders candidates by descending gain, then ascending key: the one
// deterministic order of every top-k.
func byRank[K cmp.Ordered](a, b Candidate[K]) int {
	if c := cmp.Compare(b.Gain, a.Gain); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

// TopByGain scores every candidate with the information-gain estimate
// (Equation 2.2) and returns the global top n in descending gain order,
// skipping keys in exclude (already-selected rules) and non-positive gains.
// The reduction runs as per-partition heaps followed by a driver merge, the
// standard distributed top-k.
func TopByGain(c engine.Backend, candidates *engine.PColl[map[string]cube.Agg], n int, exclude map[string]bool) []Candidate[string] {
	if n <= 0 {
		return nil
	}
	tops := engine.MapParts(c, candidates, "candgen/topk", func(_ int, part map[string]cube.Agg) []Candidate[string] {
		h := make(candHeap[string], 0, n+1)
		for key, agg := range part {
			if !exclude[key] {
				h.consider(n, key, agg)
			}
		}
		return h.sorted()
	})
	return mergeTopK(tops.Parts(), n)
}

// mergeTopK merges partitions' candidates, each already in rank order
// (byRank), into the global top n in that order. Sorting every partition's
// n candidates on the driver is serial work of up to a quarter of a light
// exhaustive query, so each partition sorts its own inside its task and the
// driver only walks the heads: O(n·partitions) comparisons.
func mergeTopK[K cmp.Ordered](tops [][]Candidate[K], n int) []Candidate[K] {
	total := 0
	for _, part := range tops {
		total += len(part)
	}
	out := make([]Candidate[K], 0, min(n, total))
	heads := make([]int, len(tops))
	for len(out) < cap(out) {
		best := -1
		for i, part := range tops {
			if heads[i] < len(part) && (best < 0 || byRank(part[heads[i]], tops[best][heads[best]]) < 0) {
				best = i
			}
		}
		out = append(out, tops[best][heads[best]])
		heads[best]++
	}
	return out
}
