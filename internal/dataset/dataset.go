// Package dataset implements the multidimensional relations SIRUM mines: a
// set of categorical dimension attributes plus one numeric measure attribute
// (Section 2.1 of the thesis). Dimension values are dictionary-encoded to
// dense int32 codes and stored column-wise, which keeps rule matching, LCA
// computation and sampling cache-friendly and allocation-free.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"sirum/internal/stats"
)

// Value codes. Codes are non-negative; NoValue marks a missing entry during
// construction (it never appears in a finished dataset).
const NoValue int32 = -2

// Dict maps the string values of one dimension attribute to dense int32
// codes in insertion order.
//
// A Dict has two phases with an explicit boundary. During construction the
// single mutating entry point, Code, inserts new values; it must be called
// from one goroutine (builders and generators do). Builder.Build freezes the
// dictionary, after which Code panics and every remaining method — Lookup,
// Value, Size, Values — is a pure read. That split is what makes a built
// Dataset safe to share across concurrent mining queries without locks: no
// read path can ever race a mutation, because mutations are impossible.
type Dict struct {
	frozen bool
	toCode map[string]int32
	values []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{toCode: make(map[string]int32)}
}

// Code returns the code for value v, inserting it if new. It is the only
// mutating method and is construction-only: calling it on a frozen
// dictionary (one owned by a finished Dataset) panics.
func (d *Dict) Code(v string) int32 {
	if c, ok := d.toCode[v]; ok {
		return c
	}
	if d.frozen {
		panic("dataset: Code insert on a frozen dictionary (datasets are immutable once built; use Lookup for reads)")
	}
	c := int32(len(d.values))
	d.toCode[v] = c
	d.values = append(d.values, v)
	return c
}

// freeze ends the construction phase; from here on the dictionary is
// read-only and safe for concurrent use.
func (d *Dict) freeze() { d.frozen = true }

// Lookup returns the code for v and whether it is present.
func (d *Dict) Lookup(v string) (int32, bool) {
	c, ok := d.toCode[v]
	return c, ok
}

// Value returns the string for code c.
func (d *Dict) Value(c int32) string {
	if c < 0 || int(c) >= len(d.values) {
		return fmt.Sprintf("<code %d>", c)
	}
	return d.values[c]
}

// Size returns the number of distinct values (the active domain size).
func (d *Dict) Size() int { return len(d.values) }

// Values returns the dictionary contents in code order. The caller must not
// modify the returned slice.
func (d *Dict) Values() []string { return d.values }

// Schema describes a dataset's attributes.
type Schema struct {
	DimNames    []string
	MeasureName string
}

// NumDims returns the number of dimension attributes (d in the thesis).
func (s Schema) NumDims() int { return len(s.DimNames) }

// DimIndex returns the position of the named dimension, or -1.
func (s Schema) DimIndex(name string) int {
	for i, n := range s.DimNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Dataset is a columnar multidimensional relation: len(Dims) dimension
// columns of equal length and one measure column.
//
// Immutability convention: a Dataset is frozen once built. Builder.Build
// freezes the dictionaries (further Code inserts panic), and no code may
// write to Dims or Measure afterwards; helpers that "change" a dataset
// (Select, Sample, Project, Concat) return new datasets, sharing the frozen
// dictionaries and, where safe, the columns. The prepare-once session layer
// leans on this: any number of concurrent mining queries read one Dataset's
// columns and dictionaries without synchronization.
type Dataset struct {
	Schema  Schema
	Dicts   []*Dict   // one per dimension, aligned with Schema.DimNames
	Dims    [][]int32 // Dims[j][i] = code of attribute j in tuple i
	Measure []float64 // Measure[i] = t_i[m]
}

// NumRows returns |D|.
func (ds *Dataset) NumRows() int { return len(ds.Measure) }

// NumDims returns d.
func (ds *Dataset) NumDims() int { return len(ds.Dims) }

// Row copies tuple i's dimension codes into buf (allocating if buf is too
// small) and returns it along with the measure value.
func (ds *Dataset) Row(i int, buf []int32) ([]int32, float64) {
	d := ds.NumDims()
	if cap(buf) < d {
		buf = make([]int32, d)
	}
	buf = buf[:d]
	for j := 0; j < d; j++ {
		buf[j] = ds.Dims[j][i]
	}
	return buf, ds.Measure[i]
}

// DimValue returns the string value of attribute j in tuple i.
func (ds *Dataset) DimValue(i, j int) string {
	return ds.Dicts[j].Value(ds.Dims[j][i])
}

// TotalMeasure returns Σ t[m].
func (ds *Dataset) TotalMeasure() float64 {
	var sum float64
	for _, m := range ds.Measure {
		sum += m
	}
	return sum
}

// MeanMeasure returns the average measure value, 0 for an empty dataset.
func (ds *Dataset) MeanMeasure() float64 {
	if ds.NumRows() == 0 {
		return 0
	}
	return ds.TotalMeasure() / float64(ds.NumRows())
}

// ApproxBytes estimates the in-memory footprint of the dataset payload
// (columns only), used by the engine's memory accounting.
func (ds *Dataset) ApproxBytes() int64 {
	rows := int64(ds.NumRows())
	return rows*int64(ds.NumDims())*4 + rows*8
}

// Validate checks structural invariants and returns a descriptive error when
// violated. A valid dataset has aligned columns, dictionaries covering every
// code, and no NoValue entries.
func (ds *Dataset) Validate() error {
	if len(ds.Schema.DimNames) != len(ds.Dims) {
		return fmt.Errorf("dataset: %d dim names but %d dim columns", len(ds.Schema.DimNames), len(ds.Dims))
	}
	if len(ds.Dicts) != len(ds.Dims) {
		return fmt.Errorf("dataset: %d dicts but %d dim columns", len(ds.Dicts), len(ds.Dims))
	}
	n := ds.NumRows()
	for j, col := range ds.Dims {
		if len(col) != n {
			return fmt.Errorf("dataset: column %q has %d rows, measure has %d", ds.Schema.DimNames[j], len(col), n)
		}
		domain := int32(ds.Dicts[j].Size())
		for i, c := range col {
			if c < 0 || c >= domain {
				return fmt.Errorf("dataset: column %q row %d has code %d outside domain [0,%d)", ds.Schema.DimNames[j], i, c, domain)
			}
		}
	}
	return nil
}

// Builder assembles a dataset row by row from string values.
type Builder struct {
	ds *Dataset
}

// NewBuilder returns a builder for the given schema.
func NewBuilder(schema Schema) *Builder {
	ds := &Dataset{Schema: schema}
	ds.Dicts = make([]*Dict, schema.NumDims())
	ds.Dims = make([][]int32, schema.NumDims())
	for j := range ds.Dicts {
		ds.Dicts[j] = NewDict()
	}
	return &Builder{ds: ds}
}

// Add appends one tuple. dims must have exactly one value per dimension.
func (b *Builder) Add(dims []string, measure float64) error {
	if len(dims) != b.ds.NumDims() {
		return fmt.Errorf("dataset: tuple has %d dims, schema has %d", len(dims), b.ds.NumDims())
	}
	for j, v := range dims {
		b.ds.Dims[j] = append(b.ds.Dims[j], b.ds.Dicts[j].Code(v))
	}
	b.ds.Measure = append(b.ds.Measure, measure)
	return nil
}

// AddCodes appends one tuple given pre-encoded codes. The caller is
// responsible for codes being valid for the builder's dictionaries (used by
// generators that populate dictionaries up front).
func (b *Builder) AddCodes(codes []int32, measure float64) error {
	if len(codes) != b.ds.NumDims() {
		return fmt.Errorf("dataset: tuple has %d dims, schema has %d", len(codes), b.ds.NumDims())
	}
	for j, c := range codes {
		b.ds.Dims[j] = append(b.ds.Dims[j], c)
	}
	b.ds.Measure = append(b.ds.Measure, measure)
	return nil
}

// Dict exposes the builder's dictionary for dimension j so generators can
// pre-register domain values.
func (b *Builder) Dict(j int) *Dict { return b.ds.Dicts[j] }

// Build finalizes and validates the dataset, freezing its dictionaries: the
// result is immutable and safe for concurrent readers.
func (b *Builder) Build() (*Dataset, error) {
	if err := b.ds.Validate(); err != nil {
		return nil, err
	}
	for _, d := range b.ds.Dicts {
		d.freeze()
	}
	return b.ds, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// input is program-controlled.
func (b *Builder) MustBuild() *Dataset {
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ds
}

// Select returns a new dataset containing the given row indices (in order),
// sharing dictionaries with the original.
func (ds *Dataset) Select(rows []int) *Dataset {
	out := &Dataset{Schema: ds.Schema, Dicts: ds.Dicts}
	out.Dims = make([][]int32, ds.NumDims())
	for j := range out.Dims {
		col := make([]int32, len(rows))
		src := ds.Dims[j]
		for i, r := range rows {
			col[i] = src[r]
		}
		out.Dims[j] = col
	}
	out.Measure = make([]float64, len(rows))
	for i, r := range rows {
		out.Measure[i] = ds.Measure[r]
	}
	return out
}

// Sample draws n rows uniformly without replacement (all rows if n >= |D|).
func (ds *Dataset) Sample(r *rand.Rand, n int) *Dataset {
	return ds.Select(stats.ReservoirSample(r, ds.NumRows(), n))
}

// SampleFraction draws a Bernoulli sample with rate p in [0,1].
func (ds *Dataset) SampleFraction(r *rand.Rand, p float64) *Dataset {
	return ds.Select(stats.BernoulliSample(r, ds.NumRows(), p))
}

// Project returns a dataset restricted to the first k dimension attributes,
// as used by the thesis' SUSY(10)/SUSY(14)/SUSY(18) projections.
func (ds *Dataset) Project(k int) *Dataset {
	if k < 0 || k > ds.NumDims() {
		panic(fmt.Sprintf("dataset: projection onto %d of %d dims", k, ds.NumDims()))
	}
	return &Dataset{
		Schema:  Schema{DimNames: ds.Schema.DimNames[:k], MeasureName: ds.Schema.MeasureName},
		Dicts:   ds.Dicts[:k],
		Dims:    ds.Dims[:k],
		Measure: ds.Measure,
	}
}

// Concat appends other's rows to ds, producing a new dataset. Both datasets
// must share dictionaries (i.e. derive from the same source); otherwise codes
// would clash, so Concat re-encodes via strings when dictionaries differ.
func (ds *Dataset) Concat(other *Dataset) (*Dataset, error) {
	if ds.NumDims() != other.NumDims() {
		return nil, fmt.Errorf("dataset: concat dims mismatch %d vs %d", ds.NumDims(), other.NumDims())
	}
	sameDicts := true
	for j := range ds.Dicts {
		if ds.Dicts[j] != other.Dicts[j] {
			sameDicts = false
			break
		}
	}
	if sameDicts {
		out := &Dataset{Schema: ds.Schema, Dicts: ds.Dicts}
		out.Dims = make([][]int32, ds.NumDims())
		for j := range out.Dims {
			col := make([]int32, 0, ds.NumRows()+other.NumRows())
			col = append(col, ds.Dims[j]...)
			col = append(col, other.Dims[j]...)
			out.Dims[j] = col
		}
		out.Measure = append(append(make([]float64, 0, ds.NumRows()+other.NumRows()), ds.Measure...), other.Measure...)
		return out, nil
	}
	b := NewBuilder(ds.Schema)
	row := make([]string, ds.NumDims())
	addAll := func(src *Dataset) error {
		for i := 0; i < src.NumRows(); i++ {
			for j := 0; j < src.NumDims(); j++ {
				row[j] = src.DimValue(i, j)
			}
			if err := b.Add(row, src.Measure[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addAll(ds); err != nil {
		return nil, err
	}
	if err := addAll(other); err != nil {
		return nil, err
	}
	return b.Build()
}

// DomainSizes returns the active domain size of each dimension.
func (ds *Dataset) DomainSizes() []int {
	out := make([]int, ds.NumDims())
	for j, d := range ds.Dicts {
		out[j] = d.Size()
	}
	return out
}

// DimsByDomainSize returns dimension indices sorted by ascending active
// domain size (ties broken by index); used to pick the "lowest cardinality"
// group-by queries of the cube-exploration application.
func (ds *Dataset) DimsByDomainSize() []int {
	idx := make([]int, ds.NumDims())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return ds.Dicts[idx[a]].Size() < ds.Dicts[idx[b]].Size()
	})
	return idx
}
