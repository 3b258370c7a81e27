package dataset

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sirum/internal/stats"
)

func buildSmall(t *testing.T) *Dataset {
	t.Helper()
	b := NewBuilder(Schema{DimNames: []string{"Day", "Origin", "Destination"}, MeasureName: "Delay"})
	rows := []struct {
		d []string
		m float64
	}{
		{[]string{"Fri", "SF", "London"}, 20},
		{[]string{"Fri", "London", "LA"}, 16},
		{[]string{"Sun", "Tokyo", "Frankfurt"}, 10},
		{[]string{"Sun", "Chicago", "London"}, 15},
	}
	for _, r := range rows {
		if err := b.Add(r.d, r.m); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Code("apple")
	b := d.Code("banana")
	if a == b {
		t.Fatal("distinct values share a code")
	}
	if d.Code("apple") != a {
		t.Error("re-encoding changed code")
	}
	if got := d.Value(a); got != "apple" {
		t.Errorf("Value = %q", got)
	}
	if got := d.Value(99); !strings.Contains(got, "99") {
		t.Errorf("out-of-range Value = %q", got)
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Error("Lookup found missing value")
	}
	if c, ok := d.Lookup("banana"); !ok || c != b {
		t.Error("Lookup failed for existing value")
	}
	if len(d.Values()) != 2 || d.Values()[0] != "apple" {
		t.Errorf("Values = %v", d.Values())
	}
}

func TestBuilderAndAccessors(t *testing.T) {
	ds := buildSmall(t)
	if ds.NumRows() != 4 || ds.NumDims() != 3 {
		t.Fatalf("rows=%d dims=%d", ds.NumRows(), ds.NumDims())
	}
	row, m := ds.Row(0, nil)
	if m != 20 {
		t.Errorf("measure = %v", m)
	}
	if ds.Dicts[0].Value(row[0]) != "Fri" || ds.Dicts[2].Value(row[2]) != "London" {
		t.Errorf("row decode failed: %v", row)
	}
	if ds.DimValue(3, 1) != "Chicago" {
		t.Errorf("DimValue = %q", ds.DimValue(3, 1))
	}
	if got := ds.TotalMeasure(); got != 61 {
		t.Errorf("TotalMeasure = %v", got)
	}
	if got := ds.MeanMeasure(); math.Abs(got-15.25) > 1e-12 {
		t.Errorf("MeanMeasure = %v", got)
	}
	// Row with a reusable buffer must not allocate a new one.
	buf := make([]int32, 3)
	row2, _ := ds.Row(1, buf)
	if &row2[0] != &buf[0] {
		t.Error("Row ignored provided buffer")
	}
}

func TestBuilderArityMismatch(t *testing.T) {
	b := NewBuilder(Schema{DimNames: []string{"a", "b"}, MeasureName: "m"})
	if err := b.Add([]string{"only-one"}, 1); err == nil {
		t.Error("Add with wrong arity did not fail")
	}
	if err := b.AddCodes([]int32{1, 2, 3}, 1); err == nil {
		t.Error("AddCodes with wrong arity did not fail")
	}
}

func TestValidateCatchesBadCodes(t *testing.T) {
	ds := buildSmall(t)
	ds.Dims[0][0] = 99
	if err := ds.Validate(); err == nil {
		t.Error("Validate accepted out-of-domain code")
	}
	ds.Dims[0][0] = 0
	ds.Dims[1] = ds.Dims[1][:2]
	if err := ds.Validate(); err == nil {
		t.Error("Validate accepted ragged columns")
	}
}

func TestEmptyDataset(t *testing.T) {
	b := NewBuilder(Schema{DimNames: []string{"a"}, MeasureName: "m"})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 0 || ds.MeanMeasure() != 0 || ds.TotalMeasure() != 0 {
		t.Error("empty dataset stats nonzero")
	}
}

func TestSelectAndSample(t *testing.T) {
	ds := buildSmall(t)
	sel := ds.Select([]int{3, 0})
	if sel.NumRows() != 2 {
		t.Fatalf("Select rows = %d", sel.NumRows())
	}
	if sel.DimValue(0, 0) != "Sun" || sel.DimValue(1, 0) != "Fri" {
		t.Errorf("Select order wrong: %q %q", sel.DimValue(0, 0), sel.DimValue(1, 0))
	}
	if sel.Measure[0] != 15 || sel.Measure[1] != 20 {
		t.Errorf("Select measures %v", sel.Measure)
	}
	// Shares dictionaries.
	if sel.Dicts[0] != ds.Dicts[0] {
		t.Error("Select did not share dictionaries")
	}

	s := ds.Sample(stats.NewRand(5), 2)
	if s.NumRows() != 2 {
		t.Errorf("Sample rows = %d", s.NumRows())
	}
	all := ds.Sample(stats.NewRand(5), 100)
	if all.NumRows() != 4 {
		t.Errorf("oversized Sample rows = %d", all.NumRows())
	}

	f := ds.SampleFraction(stats.NewRand(5), 1.0)
	if f.NumRows() != 4 {
		t.Errorf("full fraction rows = %d", f.NumRows())
	}
}

func TestProject(t *testing.T) {
	ds := buildSmall(t)
	p := ds.Project(2)
	if p.NumDims() != 2 || p.NumRows() != 4 {
		t.Fatalf("Project dims=%d rows=%d", p.NumDims(), p.NumRows())
	}
	if p.Schema.DimNames[1] != "Origin" {
		t.Errorf("projected schema %v", p.Schema.DimNames)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("projected dataset invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Project(99) did not panic")
		}
	}()
	ds.Project(99)
}

func TestConcatSharedDicts(t *testing.T) {
	ds := buildSmall(t)
	a := ds.Select([]int{0, 1})
	b := ds.Select([]int{2, 3})
	all, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 4 {
		t.Fatalf("concat rows = %d", all.NumRows())
	}
	if all.DimValue(2, 0) != "Sun" {
		t.Errorf("concat row decode %q", all.DimValue(2, 0))
	}
}

func TestConcatDifferentDicts(t *testing.T) {
	mk := func(day string) *Dataset {
		b := NewBuilder(Schema{DimNames: []string{"Day"}, MeasureName: "m"})
		if err := b.Add([]string{day}, 1); err != nil {
			t.Fatal(err)
		}
		return b.MustBuild()
	}
	a, b := mk("Mon"), mk("Tue")
	all, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 2 || all.DimValue(0, 0) != "Mon" || all.DimValue(1, 0) != "Tue" {
		t.Errorf("concat re-encode failed")
	}
	if err := all.Validate(); err != nil {
		t.Error(err)
	}
	// Mismatched arity.
	c := NewBuilder(Schema{DimNames: []string{"x", "y"}, MeasureName: "m"}).MustBuild()
	if _, err := a.Concat(c); err == nil {
		t.Error("concat with mismatched dims did not fail")
	}
}

func TestDomainSizesAndPossibleRules(t *testing.T) {
	ds := buildSmall(t)
	sizes := ds.DomainSizes()
	// Day: Fri, Sun = 2; Origin: SF, London, Tokyo, Chicago = 4; Dest: London, LA, Frankfurt = 3.
	want := []int{2, 4, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("DomainSizes = %v, want %v", sizes, want)
		}
	}
}

func TestDimsByDomainSize(t *testing.T) {
	ds := buildSmall(t)
	order := ds.DimsByDomainSize()
	// Domain sizes 2, 4, 3 -> order 0, 2, 1.
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Errorf("DimsByDomainSize = %v", order)
	}
}

func TestApproxBytes(t *testing.T) {
	ds := buildSmall(t)
	if got := ds.ApproxBytes(); got != 4*(3*4+8) {
		t.Errorf("ApproxBytes = %d", got)
	}
}

func TestQuickSelectPreservesRows(t *testing.T) {
	ds := buildSmall(t)
	f := func(raw []uint8) bool {
		rows := make([]int, len(raw))
		for i, r := range raw {
			rows[i] = int(r) % ds.NumRows()
		}
		sel := ds.Select(rows)
		if sel.NumRows() != len(rows) {
			return false
		}
		for i, r := range rows {
			if sel.Measure[i] != ds.Measure[r] {
				return false
			}
			for j := 0; j < ds.NumDims(); j++ {
				if sel.Dims[j][i] != ds.Dims[j][r] {
					return false
				}
			}
		}
		return sel.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDictFreezesOnBuild pins the construction/read phase boundary: after
// Build, dictionary reads are lock-free safe because inserts panic.
func TestDictFreezesOnBuild(t *testing.T) {
	b := NewBuilder(Schema{DimNames: []string{"a"}, MeasureName: "m"})
	if err := b.Add([]string{"x"}, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Dicts[0].Code("x"); got != 0 {
		t.Errorf("existing value lookup through Code = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Code insert on a frozen dictionary did not panic")
		}
	}()
	ds.Dicts[0].Code("new-value")
}
