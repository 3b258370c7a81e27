// Package cube implements the distributed data-cube computation SIRUM's rule
// generation is built on (Section 3.1, after Nandi et al. [25]): every input
// rule instance emits its ancestors along the cube lattice, and aggregates
// (Σm, Σm̂, count) are combined per distinct candidate rule.
//
// Two strategies are provided, selected by how the dimension attributes are
// grouped:
//
//   - a single group of all attributes reproduces the one-round algorithm of
//     BJ SIRUM, where each mapper emits a rule's entire cube lattice;
//   - g ordered column groups reproduce the multi-stage pipeline of Section
//     4.3, where stage j only wildcards attributes of group Gⱼ and feeds its
//     reduced output to stage j+1, shrinking the emitted intermediate volume
//     (Figure 5.8). Appendix A proves the outputs identical; this package's
//     property tests check it.
//
// There are two concrete pipelines, one per schema kind, and the miner picks
// between them once per query. When the dimension dictionaries pack into 64
// bits (rule.NewPacker) rules are single uint64 words and the round state is
// flat: ComputeTables runs the map/shuffle/merge structure over PackedTable —
// an open-addressing []uint64/[]Agg table with linear probing and in-place
// merge. Tables are borrowed from the backend's per-query scratch arena
// (BorrowTable/Release, the engine.Scratch contract) and Reset between
// stages, so a warm multi-stage cube reuses the same backing arrays across
// all stages and allocates nothing in steady state. Wider schemas take
// Compute: rule.Key strings of 4 bytes per attribute in per-partition Go
// maps, emitted through a scratch buffer and an AggTable so only the first
// emission of each distinct ancestor materializes a string. Both produce
// identical candidate sets; the equivalence tests hold the tables to the
// string pipeline by decoding keys.
//
// Both recompute the cube every round, as the paper does. But between rounds
// — and between queries over one candidate space — only the Σm̂ values
// change: the candidate keys and which leaf instance feeds which candidate
// are fixed by the leaf key set. Lattice is the build-once form of
// that fixed part: a slot per candidate and, per attribute, an edge list from
// each key holding a constant there to the key with it wildcarded.
// BuildLattice pays one hash per edge, once; Lattice.Propagate then replays a
// round as a single in-place pass of additions over a per-query vector — no
// hashing, shuffle or merge. A prepared session (miner.Prep) keeps one per
// candidate space, dropped with the prepared state, at 8 bytes per slot for
// the key, 8 per edge and 8–16 per slot of key index; the per-round pipeline
// remains for cold runs, string keys and spaces past the entry budget.
package cube

import (
	"fmt"

	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// Agg carries the aggregates of one candidate rule: the sums of actual and
// estimated measure values over contributing instances and the instance
// count. For LCA instances the count is 1 per (sample tuple, data tuple)
// pair; after the sample fix-up it equals the support size |S_D(r)|.
type Agg struct {
	SumM    float64
	SumMhat float64
	Count   float64
}

// Merge combines two aggregates.
func Merge(a, b Agg) Agg {
	return Agg{SumM: a.SumM + b.SumM, SumMhat: a.SumMhat + b.SumMhat, Count: a.Count + b.Count}
}

// wildcardField overwrites attribute p's four key bytes with the wildcard
// pattern — 0xFF×4, the little-endian encoding of rule.Wildcard, which no
// valid (non-negative) code produces.
func wildcardField(buf []byte, p int) {
	buf[p*4] = 0xFF
	buf[p*4+1] = 0xFF
	buf[p*4+2] = 0xFF
	buf[p*4+3] = 0xFF
}

func isWildcardField(key string, p int) bool {
	return key[p*4] == 0xFF && key[p*4+1] == 0xFF && key[p*4+2] == 0xFF && key[p*4+3] == 0xFF
}

// stringAncestors runs one map stage over a partition of arity-d string keys:
// it emits the proper ancestors of every rule obtained by wildcarding
// non-empty subsets of the group's attributes, locally combined, and returns
// them with the number of (ancestor, aggregate) emissions. Ancestors are
// enumerated in place on a scratch key buffer — no Rule is materialized per
// ancestor, and AggTable interns each distinct ancestor key once. Corrupt
// keys and enumerations past rule.MaxFreeAttrs fail.
func stringAncestors(part map[string]Agg, d int, group []int) (map[string]Agg, int64, error) {
	local := NewAggTable(2 * len(part))
	free := make([]int, 0, len(group))
	buf := make([]byte, d*4)
	var emitted int64
	for key, agg := range part {
		if len(key) != d*4 {
			return nil, 0, fmt.Errorf("cube: corrupt rule key: %d bytes, want %d for arity %d", len(key), d*4, d)
		}
		free = free[:0]
		for _, p := range group {
			if !isWildcardField(key, p) {
				free = append(free, p)
			}
		}
		if len(free) > rule.MaxFreeAttrs {
			return nil, 0, &rule.BlowupError{Free: len(free)}
		}
		total := 1 << uint(len(free))
		for mask := 1; mask < total; mask++ {
			copy(buf, key)
			for b := 0; b < len(free); b++ {
				if mask&(1<<uint(b)) != 0 {
					wildcardField(buf, free[b])
				}
			}
			local.Add(buf, agg)
			emitted++
		}
	}
	return local.Map(), emitted, nil
}

// AggTable accumulates string-keyed aggregates with allocation-free hot-path
// lookups: the index is consulted via m[string(buf)] (a no-copy access), so
// a key string is materialized only on the first sighting of each distinct
// key. Aggregates live in a flat slice and merge in place.
type AggTable struct {
	idx  map[string]int
	aggs []Agg
}

// NewAggTable returns a table pre-sized for about hint distinct keys.
func NewAggTable(hint int) *AggTable {
	return &AggTable{idx: make(map[string]int, hint), aggs: make([]Agg, 0, hint)}
}

// Add merges agg into the entry for key — a scratch buffer the caller is
// free to reuse immediately after the call.
func (t *AggTable) Add(key []byte, agg Agg) {
	if i, ok := t.idx[string(key)]; ok {
		a := &t.aggs[i]
		a.SumM += agg.SumM
		a.SumMhat += agg.SumMhat
		a.Count += agg.Count
		return
	}
	t.idx[string(key)] = len(t.aggs)
	t.aggs = append(t.aggs, agg)
}

// Len returns the number of distinct keys.
func (t *AggTable) Len() int { return len(t.idx) }

// Map materializes the table as an ordinary keyed map, reusing the interned
// key strings.
func (t *AggTable) Map() map[string]Agg {
	out := make(map[string]Agg, len(t.idx))
	for k, i := range t.idx {
		out[k] = t.aggs[i]
	}
	return out
}

// SplitGroups partitions the attribute positions 0..d-1 into g contiguous,
// near-even ordered groups (the thesis' evaluation splits "evenly into two
// groups"). g is clamped to [1, d].
func SplitGroups(d, g int) [][]int {
	if g < 1 {
		g = 1
	}
	if g > d {
		g = d
	}
	if d == 0 {
		return [][]int{{}}
	}
	out := make([][]int, 0, g)
	per := (d + g - 1) / g
	for start := 0; start < d; start += per {
		end := min(start+per, d)
		grp := make([]int, 0, end-start)
		for p := start; p < end; p++ {
			grp = append(grp, p)
		}
		out = append(out, grp)
	}
	return out
}

// validateGroups checks the groups cover 0..d-1 exactly once.
func validateGroups(d int, groups [][]int) error {
	seen := make([]bool, d)
	n := 0
	for _, g := range groups {
		for _, p := range g {
			if p < 0 || p >= d {
				return fmt.Errorf("cube: group position %d outside [0,%d)", p, d)
			}
			if seen[p] {
				return fmt.Errorf("cube: position %d in multiple groups", p)
			}
			seen[p] = true
			n++
		}
	}
	if n != d {
		return fmt.Errorf("cube: groups cover %d of %d positions", n, d)
	}
	return nil
}

// stringRecordBytes sizes one shuffled (key, aggregate) record for cost
// accounting: the key string plus three float64 fields.
func stringRecordBytes(k string, _ Agg) int { return len(k) + 24 }

// Compute runs the (possibly multi-stage) data-cube over per-partition rule
// aggregates keyed by arity-d rule.Key strings — the pipeline of schemas too
// wide to pack. Input partitions map rule keys to their aggregates — for
// sample-based pruning these are the locally combined LCA instances; for
// exhaustive exploration, the tuples themselves. The result partitions every
// candidate rule (each input rule and all its ancestors) uniquely with fully
// merged aggregates.
//
// Every stage is one map-reduce round: a JobBoundary is charged per round,
// and each emitted ancestor counts toward metrics.CtrPairsEmitted, the
// quantity Figure 5.8 plots. Corrupt keys and over-wide generalizations
// surface as errors, not worker panics.
func Compute(c engine.Backend, in *engine.PColl[map[string]Agg], d int, groups [][]int) (*engine.PColl[map[string]Agg], error) {
	if err := validateGroups(d, groups); err != nil {
		return nil, err
	}
	parts := c.Config().Partitions
	// Round 0: key-partition the input so every rule lives in exactly one
	// partition (the reduce of "computing LCA(s,D)" in the thesis).
	cur := engine.ShuffleByKey(c, in, "cube/partition", parts, Merge, stringRecordBytes)
	c.JobBoundary()

	for gi, group := range groups {
		group := group
		stage := fmt.Sprintf("cube/stage%d", gi+1)
		// Map: emit this group's proper ancestors, combining locally (the
		// combiner of the MR round). Failures are collected per partition and
		// surfaced after the stage instead of panicking inside a worker.
		errs := make([]error, cur.NumParts())
		gen := engine.MapParts(c, cur, stage+"/map", func(i int, part map[string]Agg) map[string]Agg {
			local, emitted, err := stringAncestors(part, d, group)
			if err != nil {
				errs[i] = err
				return map[string]Agg{}
			}
			c.Reg().Add(metrics.CtrPairsEmitted, emitted)
			return local
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Reduce: co-partition the generated ancestors with the pass-through
		// rules (same hash, same partition count) and merge.
		genRed := engine.ShuffleByKey(c, gen, stage+"/shuffle", parts, Merge, stringRecordBytes)
		merged := make([]map[string]Agg, parts)
		c.RunStage(stage+"/merge", parts, func(b int) {
			out := cur.Part(b)
			for k, v := range genRed.Part(b) {
				if old, ok := out[k]; ok {
					out[k] = Merge(old, v)
				} else {
					out[k] = v
				}
			}
			merged[b] = out
		})
		cur = engine.NewPColl(merged)
		c.JobBoundary()
	}
	return cur, nil
}

// ComputeSingleStage is Compute with all attributes in one group — the
// one-round algorithm of Naive/BJ SIRUM where mappers emit full cube
// lattices.
func ComputeSingleStage(c engine.Backend, in *engine.PColl[map[string]Agg], d int) (*engine.PColl[map[string]Agg], error) {
	return Compute(c, in, d, SplitGroups(d, 1))
}

// CountCandidates sums the number of distinct candidate rules across the
// result partitions.
func CountCandidates(c engine.Backend, candidates *engine.PColl[map[string]Agg]) int64 {
	var total int64
	for _, p := range candidates.Parts() {
		total += int64(len(p))
	}
	return total
}
