package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"sirum"
	"sirum/internal/rule"
)

// The three library workloads: a closed loop with one caller into a
// prepared session. Parallelism comes from the engine's scheduler inside
// each call, which is the thing being measured.

// sample is one measured op, from either kind of workload.
type sample struct {
	class   string        // what answered: mine, explore, prior_explore, append, hit
	stratum string        // the op's kind within its class; a class median is taken per stratum
	label   string        // the op's full spec; repeats of a label must answer identically
	session int           // index into the workload's sessions
	due     time.Time     // when the op was due (closed loop: when it was issued)
	sent    time.Time     // when the call or request started
	done    time.Time     // when the answer was complete
	compute time.Duration // the program's own wall time for the answer (Result.WallTime / wall_ns)
	metrics sirum.QueryMetrics
	bytes   int // response body size (serving)
	err     error

	// The answer, kept for the oracle pass after the window closes.
	prior, rules []sirum.Rule
	kl           float64
	rows         int // accumulated rows an append reported
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// libSession is one prepared dataset and the benchmark's own copy of it.
type libSession struct {
	t  *table
	ds *sirum.Dataset
	p  *sirum.Prepared
}

// libOp is one call into the public API.
type libOp struct {
	class, stratum, label string
	session               int
	mine                  *sirum.Options
	explore               *sirum.ExploreOptions
}

// libPlan is a set-up library workload: prepared sessions and the op list
// the closed loop cycles through. op(i) is the i-th op issued.
type libPlan struct {
	sessions []*libSession
	cycle    int   // ops per cycle; throughput is taken over whole cycles
	warm     []int // the ops set-up runs first: one per kind of op
	op       func(i int) libOp
	digest   string
}

func (pl *libPlan) close() {
	for _, s := range pl.sessions {
		s.p.Close()
	}
}

func prepareSession(t *table, sz sizes) (*libSession, error) {
	ds, err := t.public()
	if err != nil {
		return nil, err
	}
	p, err := ds.Prepare(sirum.PrepareOptions{SampleSize: sz.SampleSize, Seed: 1})
	if err != nil {
		return nil, err
	}
	return &libSession{t: t, ds: ds, p: p}, nil
}

// mineOp is one sampled-mining query: memo-eligible when the query seed is
// the prepare seed (the prepared sample and its LCA memo are reused),
// fresh-sample otherwise.
func mineOp(session int, k int, querySeed int64, sz sizes) libOp {
	kind := "memo"
	if querySeed != 1 {
		kind = "fresh"
	}
	stratum := fmt.Sprintf("mine/%s/k=%d", kind, k)
	return libOp{class: classMine, stratum: stratum, label: fmt.Sprintf("%s/seed=%d", stratum, querySeed), session: session,
		mine: &sirum.Options{K: k, SampleSize: sz.SampleSize, Seed: querySeed}}
}

// freshSeed is the sample seed of the i-th op of a run: distinct within the
// run, never the prepare seed, and different for every -seed.
func freshSeed(seed int64, i int) int64 { return 2 + (seed%1000000)*10000 + int64(i) }

func exploreOp(session, k, groupBys int, class string) libOp {
	label := fmt.Sprintf("%s/k=%d/g=%d", class, k, groupBys)
	return libOp{class: class, stratum: label, label: label, session: session,
		explore: &sirum.ExploreOptions{K: k, GroupBys: groupBys}}
}

// buildLibrary sets one library workload up: inputs from the seed, Prepare,
// and one warm-up op per kind of op, after which blocks are loaded and the
// index and LCA memo are built. All of it is set-up time.
func buildLibrary(name string, seed int64, sz sizes) (*libPlan, error) {
	pl := &libPlan{}
	h := sha256.New()
	add := func(t *table) error {
		s, err := prepareSession(t, sz)
		if err != nil {
			return err
		}
		pl.sessions = append(pl.sessions, s)
		t.hashInto(h)
		return nil
	}
	switch name {
	case "mine":
		if err := add(incomeTable(sz.MineRows, sz.GenSeed)); err != nil {
			return nil, err
		}
		pl.cycle, pl.warm = 2*len(sz.MineKs), []int{0, 1}
		pl.op = func(i int) libOp {
			k := sz.MineKs[(i/2)%len(sz.MineKs)]
			if i%2 == 0 {
				return mineOp(0, k, 1, sz)
			}
			return mineOp(0, k, freshSeed(seed, i), sz)
		}
	case "explore":
		if err := add(incomeTable(sz.ExploreRows, sz.GenSeed).permuted(sub(seed, "explore"))); err != nil {
			return nil, err
		}
		pl.cycle, pl.warm = 3, []int{0, 2}
		pl.op = func(i int) libOp {
			if i%3 == 2 {
				return exploreOp(0, sz.ExploreK, sz.PriorGroups, classPrior)
			}
			return exploreOp(0, sz.ExploreK, sz.LightGroups, classExplore)
		}
	case "wide":
		mined := wideTable(sz.WideMineRows, sz.WideDomains, sz.GenSeed)
		explored := wideTable(sz.WideExpRows, sz.WideDomains, sz.GenSeed+1).permuted(sub(seed, "wide"))
		for _, t := range []*table{mined, explored} {
			if err := add(t); err != nil {
				pl.close()
				return nil, err
			}
		}
		if _, packs := rule.NewPacker(sz.WideDomains); packs {
			pl.close()
			return nil, fmt.Errorf("wide: domains %v pack into 64 bits; the workload would not reach the string-key path", sz.WideDomains)
		}
		pl.cycle, pl.warm = 2*len(sz.WideKs), []int{0, 1}
		pl.op = func(i int) libOp {
			if i%2 == 1 {
				return exploreOp(1, sz.ExploreK, sz.LightGroups, classExplore)
			}
			k := sz.WideKs[(i/2)%len(sz.WideKs)]
			if (i/2)%2 == 0 {
				return mineOp(0, k, 1, sz)
			}
			return mineOp(0, k, freshSeed(seed, i), sz)
		}
	default:
		return nil, fmt.Errorf("unknown library workload %q", name)
	}
	for i := 0; i < pl.cycle; i++ {
		fmt.Fprintln(h, pl.op(i).label)
	}
	for _, i := range pl.warm {
		if s := pl.call(pl.op(i)); s.err != nil {
			pl.close()
			return nil, fmt.Errorf("warm-up %s: %w", s.label, s.err)
		}
	}
	pl.digest = digest(h)
	return pl, nil
}

// call runs one op and records what came back.
func (pl *libPlan) call(op libOp) sample {
	s := sample{class: op.class, stratum: op.stratum, label: op.label, session: op.session}
	p := pl.sessions[op.session].p
	s.sent = time.Now()
	s.due = s.sent
	if op.mine != nil {
		res, err := p.Mine(*op.mine)
		s.done = time.Now()
		if s.err = err; err == nil {
			s.rules, s.kl, s.compute, s.metrics = res.Rules, res.KL, res.WallTime, res.Metrics
		}
		return s
	}
	res, err := p.Explore(*op.explore)
	s.done = time.Now()
	if s.err = err; err == nil {
		s.prior, s.rules, s.kl = res.Prior, res.Result.Rules, res.Result.KL
		s.compute, s.metrics = res.Result.WallTime, res.Result.Metrics
	}
	return s
}

// loop is the closed loop: ops back to back until the window closes.
func (pl *libPlan) loop(window time.Duration, rec *recorder, parent int) []sample {
	var samples []sample
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		// Op numbering continues after the warm-up cycle, so no fresh-sample
		// seed is drawn twice.
		s := pl.call(pl.op(pl.cycle + i))
		samples = append(samples, s)
		if rec != nil {
			id := rec.open(parent, "op", s.label, s.sent)
			rec.add(id, "call", s.label, s.sent, s.done, queryAttrs(s.metrics, s.compute))
			rec.close(id, time.Now(), nil)
			rec.charge(s.done)
		}
	}
	return samples
}

// queryAttrs flattens a query's own metrics into span attributes.
func queryAttrs(m sirum.QueryMetrics, compute time.Duration) map[string]float64 {
	attrs := map[string]float64{"compute_ns": float64(compute)}
	for k, v := range m.Counters {
		attrs["ctr."+k] = float64(v)
	}
	for k, v := range m.Phases {
		attrs["phase_ns."+k] = float64(v)
	}
	return attrs
}

// verify is the oracle pass over a library workload's samples. Each
// distinct answer is checked once; a repeat of a label must reproduce it.
func (pl *libPlan) verify(samples []sample) {
	first := make(map[string]string)
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		key := fmt.Sprintf("%d/%s", s.session, s.label)
		answer := canonical(s.rules)
		if seen, ok := first[key]; ok {
			if seen != answer {
				s.err = fmt.Errorf("%s: repeat answered differently", s.label)
			}
			continue
		}
		first[key] = answer
		sess := pl.sessions[s.session]
		if err := checkAnswer(sess.t, sess.ds, s.prior, s.rules, s.kl); err != nil {
			s.err = fmt.Errorf("%s: %w", s.label, err)
		}
	}
}
