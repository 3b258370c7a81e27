package cube

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sirum/internal/datagen"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

func flightsPacker(t testing.TB) *rule.Packer {
	t.Helper()
	p, ok := rule.NewPacker(datagen.Flights().DomainSizes())
	if !ok {
		t.Fatal("flights schema does not pack")
	}
	return p
}

// packedTupleInstances is tupleInstances in the packed representation.
func packedTupleInstances(t testing.TB, parts int) []map[uint64]Agg {
	p := flightsPacker(t)
	ds := datagen.Flights()
	out := make([]map[uint64]Agg, parts)
	for i := range out {
		out[i] = make(map[uint64]Agg)
	}
	buf := make([]int32, ds.NumDims())
	for i := 0; i < ds.NumRows(); i++ {
		row, m := ds.Row(i, buf)
		k := p.PackCodes(rule.FromTuple(row))
		pi := i % parts
		out[pi][k] = Merge(out[pi][k], Agg{SumM: m, SumMhat: 1, Count: 1})
	}
	return out
}

func tablesFromMaps(parts []map[uint64]Agg) []*PackedTable {
	out := make([]*PackedTable, len(parts))
	for i, m := range parts {
		t := NewPackedTable(len(m))
		for k, v := range m {
			t.Add(k, v)
		}
		out[i] = t
	}
	return out
}

// stringKeyed re-keys a packed fixture partition by rule.Key string: the
// string pipeline's input for the same instances.
func stringKeyed(t testing.TB, p *rule.Packer, part map[uint64]Agg) map[string]Agg {
	t.Helper()
	out := make(map[string]Agg, len(part))
	for k, v := range part {
		r, err := p.Unpack(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[r.Key()] = v
	}
	return out
}

// packedKeyed is the inverse of stringKeyed, merging the given string-keyed
// partitions into one packed map.
func packedKeyed(t testing.TB, p *rule.Packer, parts ...map[string]Agg) map[uint64]Agg {
	t.Helper()
	out := make(map[uint64]Agg)
	for _, part := range parts {
		for key, v := range part {
			r, err := rule.DecodeKey(key, p.NumDims(), nil)
			if err != nil {
				t.Fatal(err)
			}
			k, err := p.Pack(r)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = Merge(out[k], v)
		}
	}
	return out
}

// stringCube runs the string pipeline over the packed fixture partitions and
// returns its candidate set re-keyed by packed word — the oracle the table
// pipeline is held to.
func stringCube(t testing.TB, p *rule.Packer, in []map[uint64]Agg, groups [][]int) map[uint64]Agg {
	t.Helper()
	c := newTestCluster()
	defer c.Close()
	strIn := make([]map[string]Agg, len(in))
	for i, part := range in {
		strIn[i] = stringKeyed(t, p, part)
	}
	res, err := Compute(c, engine.NewPColl(strIn), p.NumDims(), groups)
	if err != nil {
		t.Fatal(err)
	}
	return packedKeyed(t, p, res.Parts()...)
}

func sameAggMaps(t *testing.T, label string, a, b map[uint64]Agg) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", label, len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Fatalf("%s: key %#x missing", label, k)
		}
		if math.Abs(va.SumM-vb.SumM) > 1e-9 || math.Abs(va.SumMhat-vb.SumMhat) > 1e-9 || math.Abs(va.Count-vb.Count) > 1e-9 {
			t.Fatalf("%s: key %#x: %+v vs %+v", label, k, va, vb)
		}
	}
}

func TestPackedTableBasics(t *testing.T) {
	tb := NewPackedTable(4)
	if tb.Len() != 0 {
		t.Fatalf("fresh table Len = %d", tb.Len())
	}
	// Key 0 is a valid packed rule (all attributes at code 0) and must round
	// trip through the zero-key sidecar.
	tb.Add(0, Agg{SumM: 1, SumMhat: 2, Count: 1})
	tb.Add(0, Agg{SumM: 3, SumMhat: 4, Count: 1})
	tb.Add(7, Agg{SumM: 5, Count: 1})
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if a, ok := tb.Get(0); !ok || a.SumM != 4 || a.SumMhat != 6 || a.Count != 2 {
		t.Fatalf("Get(0) = %+v, %v", a, ok)
	}
	if a, ok := tb.Get(7); !ok || a.SumM != 5 {
		t.Fatalf("Get(7) = %+v, %v", a, ok)
	}
	if _, ok := tb.Get(8); ok {
		t.Fatal("Get(8) found a missing key")
	}

	capBefore := tb.ScratchSize()
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	if _, ok := tb.Get(0); ok {
		t.Fatal("zero-key entry survived Reset")
	}
	if tb.ScratchSize() != capBefore {
		t.Fatalf("Reset changed capacity: %d -> %d", capBefore, tb.ScratchSize())
	}

	tb.Add(9, Agg{Count: 1})
	tb.Reserve(10_000)
	if tb.ScratchSize() <= capBefore {
		t.Fatalf("Reserve(10000) kept capacity %d", tb.ScratchSize())
	}
	if a, ok := tb.Get(9); !ok || a.Count != 1 {
		t.Fatalf("entry lost across Reserve: %+v, %v", a, ok)
	}
}

// TestPackedTableMatchesMapModel drives a table and a plain map through the
// same random operation stream — inserts, merges on duplicates, growth well
// past the initial capacity, the zero key — and requires identical contents.
func TestPackedTableMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tb := NewPackedTable(0)
	model := make(map[uint64]Agg)
	for op := 0; op < 5000; op++ {
		k := uint64(r.Intn(700)) // dense space: plenty of merges and probe collisions
		a := Agg{SumM: float64(r.Intn(10)), SumMhat: float64(r.Intn(10)), Count: 1}
		tb.Add(k, a)
		model[k] = Merge(model[k], a)
	}
	if tb.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tb.Len(), len(model))
	}
	sameAggMaps(t, "model", model, tb.Map())
	for k, want := range model {
		got, ok := tb.Get(k)
		if !ok || got != want {
			t.Fatalf("Get(%#x) = %+v, %v; want %+v", k, got, ok, want)
		}
	}
}

func TestPackedTableMergeTable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a, b := NewPackedTable(0), NewPackedTable(0)
	model := make(map[uint64]Agg)
	for i := 0; i < 300; i++ {
		k := uint64(r.Intn(100))
		v := Agg{SumM: float64(i), Count: 1}
		if i%2 == 0 {
			a.Add(k, v)
		} else {
			b.Add(k, v)
		}
		model[k] = Merge(model[k], v)
	}
	a.MergeTable(b)
	sameAggMaps(t, "merge", model, a.Map())
}

// TestMapAncestorsTableMatchesMap holds the table map-stage to the string
// pipeline's map stage over the decoded keys: same ancestors, same
// aggregates, same emission count.
func TestMapAncestorsTableMatchesMap(t *testing.T) {
	p, ok := rule.NewPacker([]int{5, 9, 2, 4})
	if !ok {
		t.Fatal("packer")
	}
	pk := PackedKeys{P: p}
	r := rand.New(rand.NewSource(3))
	for _, group := range [][]int{{0, 1, 2, 3}, {0, 2}, {1}, {3, 0}} {
		part := make(map[uint64]Agg)
		ru := make(rule.Rule, 4)
		for i := 0; i < 40; i++ {
			for j, dom := range []int32{5, 9, 2, 4} {
				if r.Intn(4) == 0 {
					ru[j] = rule.Wildcard
				} else {
					ru[j] = r.Int31n(dom)
				}
			}
			k := p.PackCodes(ru)
			part[k] = Merge(part[k], Agg{SumM: float64(r.Intn(50)), SumMhat: 1, Count: 1})
		}
		src := NewPackedTable(len(part))
		for k, v := range part {
			src.Add(k, v)
		}
		wantStr, wantEmitted, err := stringAncestors(stringKeyed(t, p, part), 4, group)
		if err != nil {
			t.Fatal(err)
		}
		wantMap := packedKeyed(t, p, wantStr)
		dst := NewPackedTable(0)
		emitted, err := pk.MapAncestorsTable(src, dst, group)
		if err != nil {
			t.Fatal(err)
		}
		if emitted != wantEmitted {
			t.Errorf("group %v: emitted %d, string path emitted %d", group, emitted, wantEmitted)
		}
		sameAggMaps(t, "ancestors", wantMap, dst.Map())
	}
}

func TestMapAncestorsTableRejectsCorruptKey(t *testing.T) {
	p, _ := rule.NewPacker([]int{5, 9, 2})
	src := NewPackedTable(1)
	src.Add(uint64(1)<<63, Agg{Count: 1}) // bits beyond the packed layout
	if _, err := (PackedKeys{P: p}).MapAncestorsTable(src, NewPackedTable(0), []int{0, 1, 2}); err == nil {
		t.Error("corrupt key accepted")
	}
}

func TestMapAncestorsTableRejectsBlowup(t *testing.T) {
	doms := make([]int, rule.MaxFreeAttrs+1)
	for i := range doms {
		doms[i] = 1 // 1-bit fields: all MaxFreeAttrs+1 dims pack easily
	}
	p, ok := rule.NewPacker(doms)
	if !ok {
		t.Fatal("packer")
	}
	src := NewPackedTable(1)
	src.Add(0, Agg{Count: 1}) // all-constant rule: every attribute is free
	group := make([]int, len(doms))
	for i := range group {
		group[i] = i
	}
	_, err := (PackedKeys{P: p}).MapAncestorsTable(src, NewPackedTable(0), group)
	if _, ok := err.(*rule.BlowupError); !ok {
		t.Errorf("err = %v, want *rule.BlowupError", err)
	}
}

// TestComputeTablesMatchesComputePacked is the table pipeline's correctness
// oracle: it must produce exactly the candidate set of the string pipeline
// over the same instances, for single- and multi-stage groupings.
func TestComputeTablesMatchesComputePacked(t *testing.T) {
	p := flightsPacker(t)
	pk := PackedKeys{P: p}
	for _, g := range []int{1, 2, 3} {
		c2 := newTestCluster()
		groups := SplitGroups(3, g)
		want := stringCube(t, p, packedTupleInstances(t, 3), groups)
		tables, err := ComputeTables(c2, engine.NewPColl(tablesFromMaps(packedTupleInstances(t, 3))), pk, groups)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]Agg)
		for _, part := range tables.Parts() {
			part.ForEach(func(k uint64, a Agg) {
				if _, dup := got[k]; dup {
					t.Errorf("g=%d: key %#x in two table partitions", g, k)
				}
				got[k] = a
			})
		}
		if CountTableCandidates(c2, tables) != 74 {
			t.Errorf("g=%d: CountTableCandidates = %d, want 74", g, CountTableCandidates(c2, tables))
		}
		sameAggMaps(t, "compute", want, got)
		c2.Close()
	}
}

// TestQuickComputeTablesEquivalence fuzzes the oracle over random instance
// sets, arities and groupings, like TestQuickMultiStageEquivalence does for
// the string path.
func TestQuickComputeTablesEquivalence(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := r.Intn(4) + 2
		g := r.Intn(d) + 1
		doms := make([]int, d)
		for j := range doms {
			doms[j] = r.Intn(6) + 2
		}
		p, ok := rule.NewPacker(doms)
		if !ok {
			t.Fatal("packer")
		}
		nInst := r.Intn(20) + 1
		in1 := []map[uint64]Agg{make(map[uint64]Agg), make(map[uint64]Agg)}
		ru := make(rule.Rule, d)
		for i := 0; i < nInst; i++ {
			for j := range ru {
				if r.Intn(4) == 0 {
					ru[j] = rule.Wildcard
				} else {
					ru[j] = r.Int31n(int32(doms[j]))
				}
			}
			agg := Agg{SumM: float64(r.Intn(100)), SumMhat: float64(r.Intn(100)), Count: 1}
			k := p.PackCodes(ru)
			in1[i%2][k] = Merge(in1[i%2][k], agg)
		}
		c2 := newTestCluster()
		groups := SplitGroups(d, g)
		want := stringCube(t, p, in1, groups)
		tables, err := ComputeTables(c2, engine.NewPColl(tablesFromMaps(in1)), PackedKeys{P: p}, groups)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]Agg)
		for _, part := range tables.Parts() {
			part.ForEach(func(k uint64, a Agg) { got[k] = a })
		}
		sameAggMaps(t, "quick", want, got)
		c2.Close()
	}
}

// TestTableShuffleAccounting pins the honest shuffle cost of the table path:
// every record is charged TableRecordBytes = 32 bytes — the 8-byte packed key
// plus the 24-byte aggregate, whatever the rule arity — and every input entry
// lands in exactly one output partition.
func TestTableShuffleAccounting(t *testing.T) {
	c := newTestCluster()
	defer c.Close()
	in := tablesFromMaps(packedTupleInstances(t, 3))
	var records int64
	want := make(map[uint64]Agg)
	for _, tb := range in {
		records += int64(tb.Len())
		tb.ForEach(func(k uint64, a Agg) { want[k] = Merge(want[k], a) })
	}
	dst := make([]*PackedTable, c.Config().Partitions)
	for i := range dst {
		dst[i] = NewPackedTable(0)
	}
	out := engine.ShuffleTables[*PackedTable, Agg](c, engine.NewPColl(in), "t", dst, TableRecordBytes)

	if got := c.Reg().Counter(metrics.CtrShuffleBytes); got != records*TableRecordBytes {
		t.Errorf("shuffle bytes = %d, want %d records x %d B = %d", got, records, TableRecordBytes, records*TableRecordBytes)
	}
	if got := c.Reg().Counter(metrics.CtrShuffleRecords); got != records {
		t.Errorf("shuffle records = %d, want %d", got, records)
	}
	got := make(map[uint64]Agg)
	for _, part := range out.Parts() {
		part.ForEach(func(k uint64, a Agg) {
			if _, dup := got[k]; dup {
				t.Errorf("key %#x in two output partitions", k)
			}
			got[k] = a
		})
	}
	sameAggMaps(t, "shuffle", want, got)
}

// TestMapAncestorsTableAllocs pins the tentpole's allocation contract: a warm
// cube map stage over recycled tables allocates nothing per run.
func TestMapAncestorsTableAllocs(t *testing.T) {
	p := flightsPacker(t)
	pk := PackedKeys{P: p}
	src := tablesFromMaps(packedTupleInstances(t, 1))[0]
	dst := NewPackedTable(0)
	group := []int{0, 1, 2}
	// Warm run: dst grows to its steady-state capacity once.
	if _, err := pk.MapAncestorsTable(src, dst, group); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		dst.Reset()
		if _, err := pk.MapAncestorsTable(src, dst, group); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warm map stage allocates %v objects/op, want 0", got)
	}
}

// TestTableArenaConcurrentDisjointBorrows runs concurrent scoped queries
// borrowing tables from one backend's arena, each stamping its tables with a
// sentinel entry — no table may be live in two queries at once. The CI race
// step (-race -run Concurrent) also exercises the arena bookkeeping.
func TestTableArenaConcurrentDisjointBorrows(t *testing.T) {
	b := engine.NewNativeBackend(engine.Config{MemoryPerExecutor: 1 << 30})
	defer b.Close()

	const workers, rounds, perRound = 8, 25, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				qc := engine.NewQueryScope(b)
				stamp := uint64(w*rounds + round + 1)
				held := make([]*PackedTable, 0, perRound)
				for i := 0; i < perRound; i++ {
					tb := BorrowTable(qc, 64)
					if tb.Len() != 0 {
						errs <- fmt.Errorf("borrowed table not Reset: %d live entries", tb.Len())
						qc.Finish()
						return
					}
					tb.Add(stamp, Agg{SumM: float64(stamp), Count: 1})
					held = append(held, tb)
				}
				for _, tb := range held {
					a, ok := tb.Get(stamp)
					if !ok || tb.Len() != 1 || a.SumM != float64(stamp) {
						errs <- fmt.Errorf("table shared across concurrent queries (worker %d round %d)", w, round)
						qc.Finish()
						return
					}
				}
				// Alternate early release with the Finish sweep.
				if round%2 == 0 {
					for _, tb := range held {
						tb.Release(qc)
					}
				}
				qc.Finish()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzPackedTable drives insert/merge/reset/grow sequences against a map
// model.
func FuzzPackedTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 255, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewPackedTable(0)
		model := make(map[uint64]Agg)
		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i], data[i+1]
			k := uint64(kb)
			switch op % 8 {
			case 7:
				tb.Reset()
				model = make(map[uint64]Agg)
			case 6:
				got, ok := tb.Get(k)
				want, wok := model[k]
				if ok != wok || got != want {
					t.Fatalf("Get(%d) = %+v,%v; model %+v,%v", k, got, ok, want, wok)
				}
			default:
				a := Agg{SumM: float64(op), SumMhat: 1, Count: 1}
				tb.Add(k, a)
				model[k] = Merge(model[k], a)
			}
		}
		if tb.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tb.Len(), len(model))
		}
		for k, want := range model {
			if got, ok := tb.Get(k); !ok || got != want {
				t.Fatalf("final Get(%d) = %+v,%v; want %+v", k, got, ok, want)
			}
		}
	})
}
