package miner

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"sirum/internal/candgen"
	"sirum/internal/datagen"
	"sirum/internal/dataset"
)

// exhaustiveLattice runs one exhaustive query on p and returns the lattice
// it froze.
func exhaustiveLattice(t *testing.T, p *Prep) *lattice {
	t.Helper()
	mustMine(t, p, Options{K: 1, SampleSize: 0})
	lat := p.spaces[spaceExhaustive].lat
	if lat == nil {
		t.Fatal("the exhaustive query froze no lattice")
	}
	return lat
}

// TestClosedSlotsAreTheNonRedundant: on an exhaustive lattice the closed
// slots the meet pass lists at freeze are, slot for slot, those
// redundantMask's count probes leave unmarked, and what
// PruneRedundantAncestors counts. The sampled lattice of the same session
// lists none.
func TestClosedSlotsAreTheNonRedundant(t *testing.T) {
	cases := append(equivalenceDatasets(), struct {
		name string
		ds   *dataset.Dataset
	}{"income-3000", datagen.Income(3000, 1)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster()
			defer c.Close()
			p := mustPrepare(t, c, tc.ds, PrepOptions{SampleSize: 16, Seed: 3})
			lat := exhaustiveLattice(t, p)
			var want []int32
			for slot, r := range lat.redundantMask(candgen.NewPackedCodec(p.packer)) {
				if !r {
					want = append(want, int32(slot))
				}
			}
			if !slices.Equal(lat.closed, want) {
				t.Fatalf("%d closed slots, %d outside the redundant mask, of %d", len(lat.closed), len(want), lat.NumSlots())
			}
			if tc.name == "income-3000" && (lat.NumSlots() != 528436 || len(lat.closed) != 81231) {
				t.Errorf("income/3000: %d slots, %d closed; want 528436, 81231", lat.NumSlots(), len(lat.closed))
			}
			// Rounds score the closed slots but count every slot, unless
			// PruneRedundantAncestors asks to count only the scored ones.
			if n := mustMine(t, p, Options{K: 1, SampleSize: 0}).Candidates; n != int64(lat.NumSlots()) {
				t.Errorf("an exhaustive query counts %d candidates of %d slots", n, lat.NumSlots())
			}
			if n := mustMine(t, p, Options{K: 1, SampleSize: 0, PruneRedundantAncestors: true}).Candidates; n != int64(len(want)) {
				t.Errorf("a pruned exhaustive query counts %d candidates, %d are not redundant", n, len(want))
			}
			mustMine(t, p, Options{K: 1, SampleSize: 16, Seed: 3})
			if sl := p.spaces[spaceSample].lat; sl == nil || sl.closed != nil {
				t.Error("the sampled lattice lists closed slots")
			}
		})
	}
}

// TestClosedListConcurrentBuildAndDrop: the closed list is a function of the
// data alone. A lattice frozen by one of several concurrent first queries,
// and one rebuilt after Prep.Drop, list the same slots as a lattice frozen
// by a lone query; and the queries answer as they do alone. The Concurrent
// name opts the test into the CI race run.
func TestClosedListConcurrentBuildAndDrop(t *testing.T) {
	ds := datagen.Income(1200, 17)
	cSerial, cShared := testCluster(), testCluster()
	defer cSerial.Close()
	defer cShared.Close()
	serial := mustPrepare(t, cSerial, ds, PrepOptions{})
	want := exhaustiveLattice(t, serial)
	queries := []Options{
		{Variant: Optimized, K: 3},
		{Variant: RCT, K: 2},
		{Variant: MultiRule, K: 4},
		{Variant: Optimized, K: 2, PruneRedundantAncestors: true},
	}
	answers := make([]answer, len(queries))
	for i, opt := range queries {
		answers[i] = answerOf(mustMine(t, serial, opt))
	}

	shared := mustPrepare(t, cShared, ds, PrepOptions{})
	got := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, opt := range queries {
		wg.Add(1)
		go func(i int, opt Options) {
			defer wg.Done()
			<-start
			got[i], errs[i] = shared.Mine(opt)
		}(i, opt)
	}
	close(start)
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if a := answerOf(got[i]); !reflect.DeepEqual(answers[i], a) {
			t.Errorf("query %d answers differently under concurrency:\n%+v\n%+v", i, answers[i], a)
		}
	}
	sameClosed := func(label string, lat *lattice) {
		t.Helper()
		if !slices.Equal(lat.Keys(), want.Keys()) || !slices.Equal(lat.closed, want.closed) {
			t.Errorf("%s: %d closed of %d slots, want %d of %d", label, len(lat.closed), lat.NumSlots(), len(want.closed), want.NumSlots())
		}
	}
	sameClosed("concurrent build", shared.spaces[spaceExhaustive].lat)
	shared.Drop()
	if shared.spaces[spaceExhaustive].lat != nil {
		t.Fatal("Drop kept the lattice")
	}
	sameClosed("rebuilt after Drop", exhaustiveLattice(t, shared))
}
