package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strings"

	"sirum"
	"sirum/internal/datagen"
	"sirum/internal/dataset"
)

// Every input is a function of -seed and the frozen sizes; nothing reads a
// clock or the global rand source. sub derives independent streams so that
// adding a draw to one input does not shift another.
func sub(seed int64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:8]))))
}

// table is the benchmark's own copy of a dataset — plain strings, row
// major — which is what the brute-force oracle scans. The program under
// test only ever sees the sirum.Dataset built from it.
type table struct {
	dimNames []string
	measure  string
	rows     [][]string
	m        []float64
}

func tableOf(ds *dataset.Dataset) *table {
	t := &table{dimNames: ds.Schema.DimNames, measure: ds.Schema.MeasureName}
	n, d := ds.NumRows(), ds.NumDims()
	t.rows = make([][]string, n)
	t.m = append([]float64(nil), ds.Measure...)
	for i := 0; i < n; i++ {
		row := make([]string, d)
		for j := 0; j < d; j++ {
			row[j] = ds.DimValue(i, j)
		}
		t.rows[i] = row
	}
	return t
}

// permuted returns the same multiset of rows in an order drawn from r. The
// builder assigns dictionary codes in first-seen order, so a permutation
// also relabels every code and changes every sample the program draws.
func (t *table) permuted(r *rand.Rand) *table {
	out := &table{dimNames: t.dimNames, measure: t.measure,
		rows: make([][]string, len(t.rows)), m: make([]float64, len(t.m))}
	for i, j := range r.Perm(len(t.rows)) {
		out.rows[i], out.m[i] = t.rows[j], t.m[j]
	}
	return out
}

// project keeps the first d dimensions.
func (t *table) project(d int) *table {
	out := &table{dimNames: t.dimNames[:d], measure: t.measure, rows: make([][]string, len(t.rows)), m: t.m}
	for i, row := range t.rows {
		out.rows[i] = row[:d]
	}
	return out
}

func (t *table) slice(lo, hi int) *table {
	return &table{dimNames: t.dimNames, measure: t.measure, rows: t.rows[lo:hi], m: t.m[lo:hi]}
}

// concat returns t followed by batch; t is not modified.
func (t *table) concat(batch *table) *table {
	return &table{dimNames: t.dimNames, measure: t.measure,
		rows: append(append([][]string(nil), t.rows...), batch.rows...),
		m:    append(append([]float64(nil), t.m...), batch.m...)}
}

// public builds the dataset the program under test is handed.
func (t *table) public() (*sirum.Dataset, error) {
	b := sirum.NewBuilder(t.dimNames, t.measure)
	for i, row := range t.rows {
		if err := b.Add(row, t.m[i]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// csv renders the table as the CSV document a create request carries.
func (t *table) csv() (string, error) {
	ds, err := t.public()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := ds.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// internal builds the columnar form the per-layer probes call into.
func (t *table) internal() (*dataset.Dataset, error) {
	b := dataset.NewBuilder(dataset.Schema{DimNames: t.dimNames, MeasureName: t.measure})
	for i, row := range t.rows {
		if err := b.Add(row, t.m[i]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func (t *table) hashInto(h hash.Hash) {
	var buf [8]byte
	for i, row := range t.rows {
		for _, v := range row {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t.m[i]))
		h.Write(buf[:])
	}
}

// sessionTable is serving session s's data: a generator draw of its own,
// cut to the serving workloads' dimensions.
func sessionTable(s int, sz sizes) *table {
	return tableOf(datagen.Income(sz.SessionRows, int64(s+1))).project(sz.ServeDims)
}

// incomeTable is the frozen-content income dataset.
func incomeTable(rows int, genSeed int64) *table { return tableOf(datagen.Income(rows, genSeed)) }

// wideTable builds the wide-schema dataset: ten dimensions whose domains
// (4, 6, 8 and seven of 255) need 66 key bits, so no query over it can take
// the packed 64-bit path. Values are Zipf-skewed, a few conjunctions shift
// the measure (planted rules), and the first 255 rows walk every domain so
// the realised domains — which is what the packer sizes fields from — are
// full at any row count.
func wideTable(rows int, domains []int, genSeed int64) *table {
	r := sub(genSeed, "wide-content")
	t := &table{measure: "score"}
	zipfs := make([]*rand.Zipf, len(domains))
	for j, dom := range domains {
		t.dimNames = append(t.dimNames, fmt.Sprintf("w%d", j))
		zipfs[j] = rand.NewZipf(r, 1.3, 2, uint64(dom-1))
	}
	maxDom := 0
	for _, dom := range domains {
		maxDom = max(maxDom, dom)
	}
	type planted struct {
		conds [][2]int // dimension, value
		shift float64
	}
	plants := []planted{
		{[][2]int{{0, 1}, {3, 0}}, 4},
		{[][2]int{{1, 2}}, -2},
		{[][2]int{{2, 0}, {4, 1}, {5, 0}}, 6},
		{[][2]int{{6, 0}}, 1.5},
	}
	for i := 0; i < rows; i++ {
		codes := make([]int, len(domains))
		for j, dom := range domains {
			if i < maxDom {
				codes[j] = i % dom
			} else {
				codes[j] = int(zipfs[j].Uint64())
			}
		}
		m := 10 + r.NormFloat64()
		for _, p := range plants {
			hit := true
			for _, c := range p.conds {
				hit = hit && codes[c[0]] == c[1]
			}
			if hit {
				m += p.shift
			}
		}
		row := make([]string, len(domains))
		for j, c := range codes {
			row[j] = fmt.Sprintf("v%d", c)
		}
		t.rows = append(t.rows, row)
		t.m = append(t.m, math.Max(m, 0.1))
	}
	return t.permuted(sub(genSeed, "wide-order")) // the domain walk should not sit in one block
}

// appendBatches cuts n append batches of the first dims income dimensions
// for a session, out of a generator draw the session never saw. Every
// shiftedEvery-th batch is shifted — its rows take one education value and
// a flipped measure — and the others follow the session's own distribution.
// (A shifted batch is what makes the maintained rule list drift; whether it
// drifts far enough to re-mine is measured, sirum.append_remine_share.)
func appendBatches(seed int64, session, n, dims int, sz sizes) []*table {
	src := tableOf(datagen.Income(n*sz.BatchRows, 1000+int64(session))).project(dims).
		permuted(sub(seed, fmt.Sprintf("batches/%d", session)))
	edu := -1
	for j, name := range src.dimNames {
		if name == "education" {
			edu = j
		}
	}
	out := make([]*table, n)
	for b := range out {
		batch := src.slice(b*sz.BatchRows, (b+1)*sz.BatchRows)
		if sz.ShiftedEvery > 0 && b%sz.ShiftedEvery == sz.ShiftedEvery-1 {
			shifted := &table{dimNames: batch.dimNames, measure: batch.measure}
			for i, row := range batch.rows {
				row = append([]string(nil), row...)
				row[edu] = batch.rows[0][edu]
				shifted.rows = append(shifted.rows, row)
				shifted.m = append(shifted.m, 1-batch.m[i])
			}
			batch = shifted
		}
		out[b] = batch
	}
	return out
}

// arrival is one request of the open-loop schedule.
type arrival struct {
	due     int64  // nanoseconds after the window opens
	session int    // index into the workload's sessions
	kind    string // "mine", "explore" or "append"
	spec    int    // mine/explore: index into the session's spec list; append: batch index
}

// schedule is the serving traffic for a seed. Its structure — Poisson
// arrivals at the frozen rate, an exact class mix dealt from a shuffled
// deck, Zipf popularity over each session's mine specs, and a share of
// reads doubled (the identical request due at the same instant: the only
// concurrent-identical-miss traffic two connections can make) — is drawn
// once, from sz.ScheduleSeed: a couple of hundred arrivals are too few for
// two independent draws to be the same traffic (between draws op_mean_ms
// moved 18–55 ms, while repeats of one draw stay within a few percent).
// The seed then makes it a different schedule of the same traffic: it
// rotates the arrival sequence in time and deals the sessions their roles.
func schedule(seed int64, seconds float64, sz sizes) []arrival {
	out := drawSchedule(sz.ScheduleSeed, seconds, sz)
	r := sub(seed, "schedule")
	// Rotate: start at a seed-drawn arrival; what came before it follows
	// the end, one mean gap later.
	k := r.Intn(len(out))
	for k > 0 && k < len(out) && out[k].due == out[k-1].due {
		k++ // never between a doubled pair
	}
	k %= len(out)
	window := int64(seconds * 1e9)
	origin := out[k].due
	out = append(append([]arrival(nil), out[k:]...), out[:k]...)
	for i := range out {
		out[i].due -= origin
		if i >= len(out)-k {
			out[i].due += window
		}
	}
	roles := r.Perm(sz.Sessions)
	batches := make([]int, sz.Sessions)
	for i := range out {
		a := &out[i]
		a.session = roles[a.session]
		if a.kind == "append" {
			a.spec = batches[a.session]
			batches[a.session]++
		}
	}
	return out
}

// drawSchedule draws the traffic structure. Append arrivals get their batch
// index from schedule, once their order is final.
func drawSchedule(seed int64, seconds float64, sz sizes) []arrival {
	r := sub(seed, "traffic")
	// Exponential gaps, rescaled so that exactly rate×seconds arrivals fill
	// the window: the arrival pattern is Poisson, the op count is not a draw.
	n := int(math.Round(sz.RatePerSec * seconds))
	dues := make([]float64, n+1)
	var t float64
	for i := range dues {
		t += r.ExpFloat64()
		dues[i] = t
	}
	scale := seconds * 1e9 / dues[n] // the n+1-th arrival would open the next window
	nAppend := int(math.Round(sz.AppendShare * float64(n)))
	nExplore := int(math.Round(sz.ExploreShare * float64(n)))
	deck := make([]string, n)
	for i := range deck {
		switch {
		case i < nAppend:
			deck[i] = "append"
		case i < nAppend+nExplore:
			deck[i] = "explore"
		default:
			deck[i] = "mine"
		}
	}
	r.Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	// Which reads are doubled is dealt the same way: an exact count.
	var reads []int
	for i, kind := range deck {
		if kind != "append" {
			reads = append(reads, i)
		}
	}
	r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	doubled := make(map[int]bool)
	for _, i := range reads[:int(math.Round(sz.DoubledShare*float64(len(reads))))] {
		doubled[i] = true
	}

	zipf := rand.NewZipf(r, sz.ZipfS, 1, uint64(sz.MineSpecs-1))
	var out []arrival
	for i, kind := range deck {
		a := arrival{due: int64(dues[i] * scale), session: r.Intn(sz.Sessions), kind: kind}
		switch kind {
		case "mine":
			a.spec = int(zipf.Uint64())
		case "explore":
			a.spec = r.Intn(len(exploreKs))
		}
		out = append(out, a)
		if doubled[i] {
			out = append(out, a)
		}
	}
	return out
}

// exploreKs are the serving workloads' explore specs (all light): several,
// so that most explores are computed rather than cached.
var exploreKs = []int{3, 4, 5, 6}

// batchesPerSession is how many append batches the schedule needs at most.
func batchesPerSession(sched []arrival, sessions int) int {
	counts := make([]int, sessions)
	most := 0
	for _, a := range sched {
		if a.kind == "append" {
			counts[a.session]++
			most = max(most, counts[a.session])
		}
	}
	return most
}

func hashSchedule(h hash.Hash, sched []arrival) {
	for _, a := range sched {
		fmt.Fprintf(h, "%d %d %s %d\n", a.due, a.session, a.kind, a.spec)
	}
}

// digest finishes a schedule digest: what the run prints so that two runs
// can be seen to have had byte-equal inputs.
func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
