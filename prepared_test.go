package sirum

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentPreparedMine is the session-layer contract pinned under the
// race detector in CI: ≥4 queries with different K and variants run
// concurrently against one shared prepared backend, and each result must
// match the equivalent cold Dataset.Mine.
func TestConcurrentPreparedMine(t *testing.T) {
	ds, err := Generate("income", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	queries := []Options{
		{K: 3, SampleSize: 16, Seed: 2},
		{K: 4, SampleSize: 16, Seed: 2, Variant: VariantBaseline},
		{K: 2, SampleSize: 16, Seed: 2, Variant: VariantRCT},
		{K: 5, SampleSize: 16, Seed: 2, Variant: VariantMultiRule},
		{K: 3, SampleSize: 16, Seed: 2, Variant: VariantFastPruning},
		{K: 3, SampleSize: 8, Seed: 7, Variant: VariantFastAncestor}, // off-sample query: draws its own
	}
	cold := make([]*Result, len(queries))
	for i, opt := range queries {
		cold[i], err = ds.Mine(opt)
		if err != nil {
			t.Fatalf("cold query %d: %v", i, err)
		}
	}

	warm := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, opt := range queries {
		wg.Add(1)
		go func(i int, opt Options) {
			defer wg.Done()
			warm[i], errs[i] = p.Mine(opt)
		}(i, opt)
	}
	wg.Wait()

	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("prepared query %d: %v", i, errs[i])
		}
		assertSameResult(t, fmt.Sprintf("query %d", i), cold[i], warm[i])
	}
}

// assertSameResult compares a cold and a prepared run of the same job.
func assertSameResult(t *testing.T, label string, cold, warm *Result) {
	t.Helper()
	if len(cold.Rules) == 0 {
		t.Fatalf("%s: cold run mined nothing", label)
	}
	if len(cold.Rules) != len(warm.Rules) {
		t.Fatalf("%s: rule counts differ: cold %d prepared %d", label, len(cold.Rules), len(warm.Rules))
	}
	for j := range cold.Rules {
		c, w := cold.Rules[j], warm.Rules[j]
		if c.String() != w.String() {
			t.Errorf("%s rule %d: cold %s vs prepared %s", label, j, c, w)
		}
		if c.Count != w.Count {
			t.Errorf("%s rule %d count: cold %d vs prepared %d", label, j, c.Count, w.Count)
		}
		if relErr(c.Avg, w.Avg) > 1e-9 {
			t.Errorf("%s rule %d avg: cold %v vs prepared %v", label, j, c.Avg, w.Avg)
		}
		if relErr(c.Gain, w.Gain) > 1e-6 {
			t.Errorf("%s rule %d gain: cold %v vs prepared %v", label, j, c.Gain, w.Gain)
		}
	}
	if relErr(cold.KL, warm.KL) > 1e-6 {
		t.Errorf("%s KL: cold %v vs prepared %v", label, cold.KL, warm.KL)
	}
	if relErr(cold.InfoGain, warm.InfoGain) > 1e-6 {
		t.Errorf("%s InfoGain: cold %v vs prepared %v", label, cold.InfoGain, warm.InfoGain)
	}
}

// TestConcurrentPreparedExplore runs exploration and plain mining
// concurrently on one session and checks the exploration against the cold
// path.
func TestConcurrentPreparedExplore(t *testing.T) {
	ds, err := Generate("flights", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	coldExp, err := ds.Explore(ExploreOptions{K: 2, GroupBys: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	var warmExp *ExploreResult
	var expErr, mineErr error
	wg.Add(2)
	go func() { defer wg.Done(); warmExp, expErr = p.Explore(ExploreOptions{K: 2, GroupBys: 2}) }()
	go func() { defer wg.Done(); _, mineErr = p.Mine(Options{K: 3}) }()
	wg.Wait()
	if expErr != nil || mineErr != nil {
		t.Fatalf("explore err %v, mine err %v", expErr, mineErr)
	}
	if len(warmExp.Result.Rules) != len(coldExp.Result.Rules) {
		t.Fatalf("recommendation counts differ: cold %d prepared %d",
			len(coldExp.Result.Rules), len(warmExp.Result.Rules))
	}
	for i := range warmExp.Result.Rules {
		if warmExp.Result.Rules[i].String() != coldExp.Result.Rules[i].String() {
			t.Errorf("recommendation %d: cold %s vs prepared %s",
				i, coldExp.Result.Rules[i], warmExp.Result.Rules[i])
		}
	}
}

// TestPreparedAppend exercises the session lifecycle: append invalidates and
// rebuilds the prepared state, maintains the rule list, and subsequent
// queries see the grown data.
func TestPreparedAppend(t *testing.T) {
	ds, err := Generate("income", 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	batch, err := Generate("income", 600, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Append(batch, Options{K: 3, SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remined {
		t.Error("first append should mine the rule list")
	}
	if res.Rows != 1800 {
		t.Errorf("rows after append = %d, want 1800", res.Rows)
	}
	if len(res.Rules) == 0 {
		t.Error("append produced no rules")
	}
	if p.NumRows() != 1800 {
		t.Errorf("session rows = %d, want 1800", p.NumRows())
	}
	// A query after Append runs against the grown data.
	mined, err := p.Mine(Options{K: 2, SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined.Rules) == 0 {
		t.Error("post-append query mined nothing")
	}
	// A small same-distribution batch refits instead of re-mining.
	small, err := Generate("income", 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p.Append(small, Options{K: 3, SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Remined {
		t.Error("small same-distribution batch re-mined instead of refitting")
	}
	if res2.Rows != 2000 {
		t.Errorf("rows after second append = %d, want 2000", res2.Rows)
	}
}

// TestPreparedRejectsForeignBackend pins that a session cannot be moved to a
// different substrate per query.
func TestPreparedRejectsForeignBackend(t *testing.T) {
	ds, err := Generate("flights", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Mine(Options{K: 2, Backend: BackendSim}); err == nil {
		t.Error("query on a foreign backend accepted")
	}
	if _, err := p.Mine(Options{K: 2, Backend: BackendNative}); err != nil {
		t.Errorf("query on the session's own backend rejected: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mine(Options{K: 2}); err == nil {
		t.Error("query on a closed session accepted")
	}
}

// TestPreparedAppendRollsBackOptionsOnFailure is the regression test for the
// failed-Append option leak: an Append whose maintenance pass errors out must
// leave the session exactly as it was — rule list, rows, epoch and content
// chain — so a retried Append answers bit-for-bit like a twin session that
// never saw the failure, instead of running with the failed call's options.
func TestPreparedAppendRollsBackOptionsOnFailure(t *testing.T) {
	ds, err := Generate("income", 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Generate("income", 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Generate("income", 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	good := Options{K: 3, SampleSize: 16, Seed: 2}
	// A near-zero RemineFactor forces every Append to re-mine, so the bad
	// options below are guaranteed to reach the mining path and fail there.
	session := func() *Prepared {
		p, err := ds.Prepare(PrepareOptions{SampleSize: 16, Seed: 2, RemineFactor: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Append(batch, good); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, twin := session(), session()
	defer p.Close()
	defer twin.Close()

	rulesBefore := p.rules
	rowsBefore, epochBefore, chainBefore := p.NumRows(), p.Epoch(), p.DatasetSpec().Chain
	// SampleFraction on the query but not on the session: the re-mine runs
	// against prepared state built without a fraction and rejects the
	// mismatch — after the refit already ran.
	if _, err := p.Append(bad, Options{K: 3, SampleSize: 16, Seed: 2, SampleFraction: 0.5}); err == nil {
		t.Fatal("append with mismatched SampleFraction should fail")
	}
	if !reflect.DeepEqual(p.rules, rulesBefore) {
		t.Error("failed append changed the maintained rule list")
	}
	if p.NumRows() != rowsBefore || p.Epoch() != epochBefore || p.DatasetSpec().Chain != chainBefore {
		t.Errorf("failed append moved the session: rows %d epoch %d chain %s, want %d, %d, %s",
			p.NumRows(), p.Epoch(), p.DatasetSpec().Chain, rowsBefore, epochBefore, chainBefore)
	}

	// The session must be fully usable, and a retried Append counts the
	// batch exactly once, answering as if the failure never happened.
	got, err := p.Append(bad, good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Append(bad, good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != rowsBefore+300 {
		t.Errorf("retried append rows = %d, want %d", got.Rows, rowsBefore+300)
	}
	if got.Remined != want.Remined || math.Float64bits(got.KL) != math.Float64bits(want.KL) || !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Errorf("retried append differs from a session that never failed:\n got %+v\nwant %+v", got, want)
	}
}

// TestPreparedAppendRejectsForeignBackend pins that Append validates
// Options.Backend exactly like Mine and Explore do, instead of silently
// running the maintenance pass on the session's substrate.
func TestPreparedAppendRejectsForeignBackend(t *testing.T) {
	ds, err := Generate("flights", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	batch, err := Generate("flights", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(batch, Options{K: 2, Backend: BackendSim}); err == nil {
		t.Error("append on a foreign backend accepted")
	}
	if p.NumRows() != ds.NumRows() {
		t.Errorf("rejected append still grew the session to %d rows", p.NumRows())
	}
	if _, err := p.Append(batch, Options{K: 2, Backend: BackendNative}); err != nil {
		t.Errorf("append naming the session's own backend rejected: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(batch, Options{K: 2}); err == nil {
		t.Error("append on a closed session accepted")
	}
}

// TestPreparedQueryMetricsAndStats pins the serving-layer observability
// hooks: every query result carries its private metrics snapshot, and
// Stats() reports session-level lifetime totals.
func TestPreparedQueryMetricsAndStats(t *testing.T) {
	ds, err := Generate("income", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Mine(Options{K: 3, SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics.Counters) == 0 {
		t.Error("query result has no metric counters")
	}
	if res.Metrics.Counters["candidates"] == 0 {
		t.Error("query metrics missing the candidates counter")
	}
	if len(res.Metrics.Phases) == 0 {
		t.Error("query result has no phase timings")
	}
	st := p.Stats()
	if st.Rows != 1500 {
		t.Errorf("stats rows = %d, want 1500", st.Rows)
	}
	if st.Backend != "native" {
		t.Errorf("stats backend = %q, want native", st.Backend)
	}
	if len(st.Lifetime.Counters) == 0 {
		t.Error("stats lifetime counters empty after a query")
	}
	// Lifetime totals must include the operator-level work of finished
	// queries (each query's registry forwards to the backend's), not just
	// stage counts.
	if st.Lifetime.Counters["candidates"] == 0 {
		t.Errorf("stats lifetime missing mining counters: %v", st.Lifetime.Counters)
	}
	if len(st.Lifetime.Phases) == 0 {
		t.Error("stats lifetime has no phase durations")
	}
}

// TestPreparedSpecsAndEpoch pins the canonical-identity contract of a
// session: the dataset source fingerprint is stable across Appends while
// the epoch counts them, equivalent option spellings canonicalize to equal
// query fingerprints, and differing seeds do not.
func TestPreparedSpecsAndEpoch(t *testing.T) {
	ds, err := Generate("income", 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.Epoch() != 0 {
		t.Fatalf("fresh session epoch = %d", p.Epoch())
	}
	base := p.DatasetSpec()
	if base.Generator == nil || base.Generator.Name != "income" {
		t.Fatalf("dataset spec lost its generator source: %+v", base)
	}

	// Equivalent spellings canonicalize identically; zero values pick up
	// the documented defaults.
	implicit, err := Options{K: 3, SampleSize: 16, Seed: 2}.Canonical(ds.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Options{K: 3, SampleSize: 16, Seed: 2, Variant: VariantOptimized, Epsilon: 0.01}.Canonical(ds.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Error("equivalent option spellings produced different fingerprints")
	}
	reseeded, err := Options{K: 3, SampleSize: 16, Seed: 3}.Canonical(ds.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Fingerprint() == implicit.Fingerprint() {
		t.Error("different seeds produced equal fingerprints")
	}
	if _, err := (Options{Variant: "nope"}).Canonical(ds.NumRows()); err == nil {
		t.Error("bad variant canonicalized without error")
	}

	batch, err := Generate("income", 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(batch, Options{K: 2, SampleSize: 16, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 1 {
		t.Errorf("epoch after append = %d, want 1", p.Epoch())
	}
	grown := p.DatasetSpec()
	if grown.Epoch != 1 {
		t.Errorf("dataset spec epoch = %d, want 1", grown.Epoch)
	}
	if grown.Fingerprint() != base.Fingerprint() {
		t.Error("append changed the source fingerprint; only the epoch may move")
	}
	if st := p.Stats(); st.Epoch != 1 || st.Fingerprint == "" {
		t.Errorf("stats = epoch %d fingerprint %q, want epoch 1 and a fingerprint", st.Epoch, st.Fingerprint)
	}
}

// TestPreparedExploreSharesExhaustiveLattice is the regression test for the
// candidate-space keying of prepared state: a session prepared with a pruning
// sample used to share nothing between its exhaustive queries (the memo was
// refused for any SampleSize but the prepared one), so every Explore re-ran
// the whole cube. Now the exhaustive space has its own build-once state: the
// second Explore moves no candidate through a shuffle, runs a fraction of the
// cold run's stages, and answers exactly what the first did.
func TestPreparedExploreSharesExhaustiveLattice(t *testing.T) {
	ds, err := Generate("income", 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := ExploreOptions{K: 3, GroupBys: 1}
	cold, err := ds.Explore(opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.Prepare(PrepareOptions{SampleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first, err := p.Explore(opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Explore(opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "second explore", cold.Result, second.Result)
	if !reflect.DeepEqual(first.Result.Rules, second.Result.Rules) || first.Result.KL != second.Result.KL {
		t.Errorf("builder and replayer answer differently:\n%v %v\n%v %v", first.Result.Rules, first.Result.KL, second.Result.Rules, second.Result.KL)
	}
	ctr, coldCtr := second.Result.Metrics.Counters, cold.Result.Metrics.Counters
	if ctr["candidates"] == 0 || ctr["candidates"] != coldCtr["candidates"] {
		t.Errorf("candidates = %d, cold run %d", ctr["candidates"], coldCtr["candidates"])
	}
	// The cube shuffles every candidate at least once a round; what is left
	// is the scaler's coverage-table rows.
	if coldCtr["shuffle_records"] < coldCtr["candidates"] {
		t.Fatalf("cold run shuffled %d records for %d candidates; the check below proves nothing", coldCtr["shuffle_records"], coldCtr["candidates"])
	}
	if ctr["shuffle_records"] >= ctr["candidates"] {
		t.Errorf("second explore shuffled %d records for %d candidates: the cube ran again", ctr["shuffle_records"], ctr["candidates"])
	}
	// Per round the cube is a key-partition exchange plus map, exchange and
	// merge per column group, on top of the leaf scan — seven stages at the
	// least; the replay is the leaf gather and one pass over the edges.
	if saved := coldCtr["stages"] - ctr["stages"]; saved < 5*int64(second.Result.Iterations) {
		t.Errorf("second explore ran %d stages over %d rounds, cold run %d: more than the replay's", ctr["stages"], second.Result.Iterations, coldCtr["stages"])
	}
	if ctr["pairs_emitted"] == 0 {
		t.Error("replayed edges are not counted as emissions")
	}
}

// seenRows is a test's own copy of every row it gave a session, so a rule's
// aggregates can be checked against a plain scan.
type seenRows struct {
	dims []string
	vals [][]string
	m    []float64
}

func (s *seenRows) add(vals []string, m float64) {
	s.vals = append(s.vals, vals)
	s.m = append(s.m, m)
}

// check holds every rule's count and average to a scan of the rows.
func (s *seenRows) check(t *testing.T, label string, rules []Rule) {
	t.Helper()
	if len(rules) == 0 {
		t.Fatalf("%s: no rules", label)
	}
	for _, r := range rules {
		var count int64
		var sum float64
	rows:
		for i, vals := range s.vals {
			for _, c := range r.Conditions {
				for j, name := range s.dims {
					if name == c.Attr && vals[j] != c.Value {
						continue rows
					}
				}
			}
			count++
			sum += s.m[i]
		}
		if avg := sum / float64(count); count != r.Count || relErr(avg, r.Avg) > 1e-9 {
			t.Errorf("%s: rule %s reports count %d avg %v, the rows say %d and %v", label, r, r.Count, r.Avg, count, avg)
		}
	}
}

// TestPreparedAppendRebuildsLattices: an Append replaces the prepared state,
// so no lattice frozen over the old data — or the old dictionaries: this
// batch's new value widens a key field — is replayed afterwards. Every rule
// returned after the Append must hold against a scan of all the rows.
func TestPreparedAppendRebuildsLattices(t *testing.T) {
	rows := seenRows{dims: []string{"a", "b", "c", "d"}}
	gen := func(n int, seed int64, aVals []string, lift float64) *Dataset {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(rows.dims, "m")
		for i := 0; i < n; i++ {
			vals := []string{
				aVals[r.Intn(len(aVals))],
				fmt.Sprintf("b%d", r.Intn(4)),
				fmt.Sprintf("c%d", r.Intn(3)),
				fmt.Sprintf("d%d", r.Intn(5)),
			}
			m := float64(r.Intn(20))
			if vals[1] == "b2" {
				m += 15
			}
			if vals[0] == "a-new" {
				m += lift
			}
			if err := b.Add(vals, m); err != nil {
				t.Fatal(err)
			}
			rows.add(vals, m)
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	check := func(label string, rules []Rule) {
		t.Helper()
		rows.check(t, label, rules)
	}
	mentions := func(rules []Rule, value string) bool {
		for _, r := range rules {
			for _, c := range r.Conditions {
				if c.Value == value {
					return true
				}
			}
		}
		return false
	}

	p, err := gen(600, 1, []string{"a0", "a1", "a2"}, 0).Prepare(PrepareOptions{SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mine, explore := Options{K: 4, SampleSize: 16, Seed: 2}, ExploreOptions{K: 3, GroupBys: 1}
	query := func(label string) (mined *Result, explored *ExploreResult) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // build, then replay
			var err error
			if mined, err = p.Mine(mine); err != nil {
				t.Fatal(err)
			}
			if explored, err = p.Explore(explore); err != nil {
				t.Fatal(err)
			}
			check(label+" mine", mined.Rules)
			check(label+" explore", explored.Result.Rules)
			check(label+" prior", explored.Prior)
		}
		return mined, explored
	}
	query("before append")

	// The fourth value of "a" takes its field from 2 bits to 3.
	if _, err := p.Append(gen(300, 2, []string{"a0", "a1", "a2", "a-new"}, 60), mine); err != nil {
		t.Fatal(err)
	}
	mined, explored := query("after append")
	if !mentions(mined.Rules, "a-new") || !mentions(explored.Result.Rules, "a-new") {
		t.Errorf("the appended value dominates the grown data but no rule names it:\n%v\n%v", mined.Rules, explored.Result.Rules)
	}
}

// TestPreparedAppendCrossesPackBoundary is the one place the two candidate
// pipelines meet in a live session: a schema needing exactly 64 key bits
// answers through table rounds, an Append whose new value takes a field one
// bit wider re-prepares the session onto string rounds, and nothing but the
// pipeline changes — every rule still holds against a scan of all the rows,
// each answer equals a cold run over the concatenated rows, and a repeat
// answers the same.
func TestPreparedAppendCrossesPackBoundary(t *testing.T) {
	// Realised domains of 7, 31 and seven times 128 values: 3 + 5 + 7·8 bits.
	doms := []int{7, 31, 128, 128, 128, 128, 128, 128, 128}
	rows := seenRows{}
	for j := range doms {
		rows.dims = append(rows.dims, fmt.Sprintf("w%d", j))
	}
	header := strings.Join(rows.dims, ",") + ",score\n"
	var all strings.Builder // the session's whole history as one CSV
	all.WriteString(header)
	// csvOf draws n rows — the first 128 walk every domain, the rest are
	// Zipf-skewed so rules have support — and logs them. w0Extra, when set,
	// is a value of w0 the base data never held.
	csvOf := func(n int, seed int64, w0Extra string) string {
		r := rand.New(rand.NewSource(seed))
		zipfs := make([]*rand.Zipf, len(doms))
		for j, dom := range doms {
			zipfs[j] = rand.NewZipf(r, 1.3, 2, uint64(dom-1))
		}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			vals := make([]string, len(doms))
			for j, dom := range doms {
				code := int(zipfs[j].Uint64())
				if w0Extra == "" && i < 128 {
					code = i % dom
				}
				vals[j] = fmt.Sprintf("v%d", code)
			}
			m := 10 + r.NormFloat64()
			if vals[1] == "v2" {
				m += 6
			}
			if vals[0] == "v1" && vals[3] == "v0" {
				m += 4
			}
			if w0Extra != "" && i%2 == 0 {
				vals[0] = w0Extra
				m += 12
			}
			rows.add(vals, m)
			fmt.Fprintf(&sb, "%s,%v\n", strings.Join(vals, ","), m) // %v round-trips a float64 exactly
		}
		all.WriteString(sb.String())
		return sb.String()
	}
	read := func(csv string) *Dataset {
		t.Helper()
		ds, err := ReadCSV(strings.NewReader(csv), "score")
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	mine, explore := Options{K: 4, SampleSize: 16, Seed: 2}, ExploreOptions{K: 3, GroupBys: 1}
	// query answers a Mine and an Explore twice over, checks every rule of
	// every answer against the rows and the repeat against the first answer,
	// and returns the repeat.
	query := func(p *Prepared, label string) (*Result, *ExploreResult) {
		t.Helper()
		var mined [2]*Result
		var explored [2]*ExploreResult
		for pass := range mined {
			var err error
			if mined[pass], err = p.Mine(mine); err != nil {
				t.Fatal(err)
			}
			if explored[pass], err = p.Explore(explore); err != nil {
				t.Fatal(err)
			}
			rows.check(t, label+" mine", mined[pass].Rules)
			rows.check(t, label+" explore", explored[pass].Result.Rules)
			rows.check(t, label+" prior", explored[pass].Prior)
		}
		assertSameResult(t, label+" repeated mine", mined[0], mined[1])
		assertSameResult(t, label+" repeated explore", explored[0].Result, explored[1].Result)
		return mined[1], explored[1]
	}
	ranCube := func(r *Result) bool {
		return r.Metrics.Counters["shuffle_records"] >= r.Metrics.Counters["candidates"]
	}

	p, err := read(header + csvOf(260, 1, "")).Prepare(PrepareOptions{SampleSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mined, explored := query(p, "packed")
	if ranCube(mined) || ranCube(explored.Result) {
		t.Errorf("a 64-bit schema did not answer its repeats by lattice replay: mine shuffled %d records for %d candidates, explore %d for %d",
			mined.Metrics.Counters["shuffle_records"], mined.Metrics.Counters["candidates"],
			explored.Result.Metrics.Counters["shuffle_records"], explored.Result.Metrics.Counters["candidates"])
	}

	// An eighth value of w0 takes its field from 3 bits to 4: 65 in all.
	if _, err := p.Append(read(header+csvOf(80, 2, "v-new")), mine); err != nil {
		t.Fatal(err)
	}
	mined, explored = query(p, "string")
	if !ranCube(mined) || !ranCube(explored.Result) {
		t.Error("a 65-bit schema answered without running the string cube")
	}
	grown := read(all.String())
	coldMined, err := grown.Mine(mine)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "mine after the append", coldMined, mined)
	coldExplored, err := grown.Explore(explore)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "explore after the append", coldExplored.Result, explored.Result)
}

// TestPreparedAppendOnSampleReportsFullDataKL pins AppendResult.KL to the
// accumulated data on a SampleFraction session. A re-mine mines the sample,
// but it must report — and seed the staleness baseline from — the divergence
// of the re-mined rules on every row, exactly as a refit does and as Fit of
// the same rules computes.
func TestPreparedAppendOnSampleReportsFullDataKL(t *testing.T) {
	base, err := Generate("income", 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := base.Prepare(PrepareOptions{SampleSize: 16, Seed: 2, SampleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	opt := Options{K: 3, SampleSize: 16, Seed: 2, SampleFraction: 0.5}
	all := base.ds
	for i, seed := range []int64{6, 7} {
		batch, err := Generate("income", 500, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Append(batch, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 0; res.Remined != want {
			t.Fatalf("append %d: Remined = %v, want %v", i+1, res.Remined, want)
		}
		if all, err = all.Concat(batch.ds); err != nil {
			t.Fatal(err)
		}
		rules := make([][]Condition, len(res.Rules))
		for j, r := range res.Rules {
			rules[j] = r.Conditions
		}
		_, kl, err := (&Dataset{ds: all}).Fit(rules)
		if err != nil {
			t.Fatal(err)
		}
		if res.KL != kl {
			t.Errorf("append %d (remined=%v): KL = %v, Fit on the accumulated data gives %v", i+1, res.Remined, res.KL, kl)
		}
	}
}
