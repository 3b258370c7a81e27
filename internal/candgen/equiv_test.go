package candgen

import (
	"math"
	"testing"

	"sirum/internal/cube"
	"sirum/internal/datagen"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/rule"
	"sirum/internal/stats"
)

// cacheFor loads ds into a fresh cluster the way the miner does.
func cacheFor(t *testing.T, c engine.Backend, ds *dataset.Dataset) *engine.CachedData {
	t.Helper()
	_, work := maxent.NewTransform(ds.Measure)
	mhat := make([]float64, len(work))
	avg := ds.MeanMeasure()
	for i := range mhat {
		mhat[i] = avg
	}
	cd, err := engine.CacheTuples(c, engine.BlocksFromColumns(ds.Dims, work, mhat, 3))
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// collectStrings gathers the string pipeline's candidate collection into one
// map; partitions are key-disjoint after the cube shuffle.
func collectStrings(t *testing.T, parts *engine.PColl[map[string]cube.Agg]) map[string]cube.Agg {
	t.Helper()
	out := make(map[string]cube.Agg)
	for _, part := range parts.Parts() {
		for k, v := range part {
			if _, dup := out[k]; dup {
				t.Fatalf("candidate key %x present in two partitions", k)
			}
			out[k] = v
		}
	}
	return out
}

// collectTablesAsStringKeys is collectStrings for the table pipeline, with
// the keys normalized to the string representation so both pipelines compare
// directly.
func collectTablesAsStringKeys(t *testing.T, parts *engine.PColl[*cube.PackedTable], codec PackedCodec) map[string]cube.Agg {
	t.Helper()
	out := make(map[string]cube.Agg)
	for _, part := range parts.Parts() {
		part.ForEach(func(k uint64, v cube.Agg) {
			r, err := codec.DecodeRule(k, nil)
			if err != nil {
				t.Fatalf("decoding candidate key %#x: %v", k, err)
			}
			key := r.Key()
			if _, dup := out[key]; dup {
				t.Fatalf("candidate key %#x present in two table partitions", k)
			}
			out[key] = v
		})
	}
	return out
}

func compareCandidates(t *testing.T, label string, ds *dataset.Dataset, str, packed map[string]cube.Agg) {
	t.Helper()
	if len(str) != len(packed) {
		t.Fatalf("%s: candidate counts differ: %d string vs %d packed", label, len(str), len(packed))
	}
	for k, sv := range str {
		pv, ok := packed[k]
		if !ok {
			r, _ := rule.FromKey(k, ds.NumDims())
			t.Fatalf("%s: packed pipeline missing candidate %s", label, r.Format(ds.Dicts))
		}
		if relDiff(sv.SumM, pv.SumM) > 1e-9 || relDiff(sv.SumMhat, pv.SumMhat) > 1e-9 || relDiff(sv.Count, pv.Count) > 1e-9 {
			r, _ := rule.FromKey(k, ds.NumDims())
			t.Errorf("%s: %s aggregates differ: %+v vs %+v", label, r.Format(ds.Dicts), sv, pv)
		}
	}
}

// TestPackedStringCandidatesEquivalentConcurrent is the cross-pipeline
// property: over randomized datasets the table pipeline — arena-recycled
// PackedTables — produces the candidate map of the string pipeline through
// leaf instances, cube stages and sample fix-up (same rules, aggregates equal
// up to summation order). The Concurrent name opts the test into the CI race
// run, so the per-part state handling of both pipelines is also race-checked.
func TestPackedStringCandidatesEquivalentConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"income-a", datagen.Income(500, 11)},
		{"income-b", datagen.Income(900, 23)},
		{"gdelt", datagen.GDELT(700, 7)},
		{"flights", datagen.Flights()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			d := ds.NumDims()
			packer, ok := rule.NewPacker(ds.DomainSizes())
			if !ok {
				t.Fatalf("%s does not pack (%d dims)", tc.name, d)
			}
			cs, ct := newTestCluster(), newTestCluster()
			defer cs.Close()
			defer ct.Close()
			cds, cdt := cacheFor(t, cs, ds), cacheFor(t, ct, ds)
			strCodec, packCodec := NewStringCodec(d), NewPackedCodec(packer)
			groups := cube.SplitGroups(d, 2)

			// Sampled LCA pipeline, indexed and naive.
			for _, indexed := range []bool{false, true} {
				s := DrawSample(ds, stats.NewRand(31), 5)
				sl, err := LCAParts(cs, cds, s, indexed, nil)
				if err != nil {
					t.Fatal(err)
				}
				tl, err := packCodec.LCATables(ct, cdt, s, indexed, nil)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := cube.Compute(cs, sl, d, groups)
				if err != nil {
					t.Fatal(err)
				}
				tt, err := cube.ComputeTables(ct, tl, packCodec.PackedKeys, groups)
				if err != nil {
					t.Fatal(err)
				}
				sa, err := AdjustForSample(cs, sc, s, strCodec)
				if err != nil {
					t.Fatal(err)
				}
				if err := AdjustTablesForSample(ct, tt, s, packCodec); err != nil {
					t.Fatal(err)
				}
				label := "lca/naive"
				if indexed {
					label = "lca/indexed"
				}
				compareCandidates(t, label, ds, collectStrings(t, sa),
					collectTablesAsStringKeys(t, tt, packCodec))
				cube.ReleaseTables(ct, tt)
			}

			// Exhaustive pipeline.
			se, err := ExhaustiveParts(cs, cds)
			if err != nil {
				t.Fatal(err)
			}
			te, err := packCodec.ExhaustiveTables(ct, cdt)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := cube.Compute(cs, se, d, groups)
			if err != nil {
				t.Fatal(err)
			}
			tcx, err := cube.ComputeTables(ct, te, packCodec.PackedKeys, groups)
			if err != nil {
				t.Fatal(err)
			}
			compareCandidates(t, "exhaustive", ds, collectStrings(t, sc),
				collectTablesAsStringKeys(t, tcx, packCodec))
			cube.ReleaseTables(ct, tcx)
		})
	}
}
