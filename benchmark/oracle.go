package main

import (
	"fmt"
	"math"
	"strings"

	"sirum"
	"sirum/internal/server"
)

// The correctness oracle. It knows nothing about how rules are mined: a
// rule's aggregates are recomputed by scanning the benchmark's own copy of
// the rows, the divergence by refitting the returned rules from scratch,
// and repeat answers by comparing canonical strings. A failed check counts
// the op as failed.

// klTolerance bounds |Result.KL − Fit KL|. Both sides scale iteratively to
// the same epsilon but add the rules in a different grouping (the miner
// inserts several per iteration), so they agree to convergence error, not
// to the last bit.
const klTolerance = 2e-3

// bruteForce scans the rows for the tuples a rule covers.
func bruteForce(t *table, conds []sirum.Condition) (count int64, avg float64) {
	cols := make([]int, len(conds))
	for i, c := range conds {
		cols[i] = -1
		for j, name := range t.dimNames {
			if name == c.Attr {
				cols[i] = j
			}
		}
		if cols[i] < 0 {
			return 0, 0
		}
	}
	var sum float64
rows:
	for i, row := range t.rows {
		for k, c := range conds {
			if row[cols[k]] != c.Value {
				continue rows
			}
		}
		count++
		sum += t.m[i]
	}
	if count > 0 {
		avg = sum / float64(count)
	}
	return count, avg
}

// checkRules requires every rule's Count and Avg to equal the scan.
func checkRules(t *table, rules []sirum.Rule) error {
	for _, r := range rules {
		count, avg := bruteForce(t, r.Conditions)
		if count != r.Count {
			return fmt.Errorf("rule %s: count %d, scan says %d", r, r.Count, count)
		}
		if math.Abs(avg-r.Avg) > 1e-9*math.Max(1, math.Abs(avg)) {
			return fmt.Errorf("rule %s: avg %v, scan says %v", r, r.Avg, avg)
		}
	}
	return nil
}

// checkKL refits prior+rules on ds and compares divergences.
func checkKL(ds *sirum.Dataset, prior, rules []sirum.Rule, kl float64) error {
	conds := make([][]sirum.Condition, 0, len(prior)+len(rules))
	for _, r := range prior {
		conds = append(conds, r.Conditions)
	}
	for _, r := range rules {
		conds = append(conds, r.Conditions)
	}
	_, want, err := ds.Fit(conds)
	if err != nil {
		return fmt.Errorf("refitting returned rules: %w", err)
	}
	if math.Abs(want-kl) > klTolerance*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("KL %v, refit says %v", kl, want)
	}
	return nil
}

// checkAnswer is the full oracle for one computed answer.
func checkAnswer(t *table, ds *sirum.Dataset, prior, rules []sirum.Rule, kl float64) error {
	if len(rules) == 0 {
		return fmt.Errorf("no rules returned")
	}
	if err := checkRules(t, prior); err != nil {
		return fmt.Errorf("prior: %w", err)
	}
	if err := checkRules(t, rules); err != nil {
		return err
	}
	return checkKL(ds, prior, rules, kl)
}

// canonical renders an answer for identity comparison. Gains are left out:
// they are float-sum-order sensitive in the last bits and derive from the
// aggregates that are included.
func canonical(rules []sirum.Rule) string {
	var b strings.Builder
	for _, r := range rules {
		fmt.Fprintf(&b, "%s #%d ~%.9g; ", r, r.Count, r.Avg)
	}
	return b.String()
}

// fromJSON converts wire rules to the library's form.
func fromJSON(in []server.RuleJSON) []sirum.Rule {
	out := make([]sirum.Rule, len(in))
	for i, r := range in {
		out[i] = sirum.Rule{Avg: r.Avg, Count: r.Count, Gain: r.Gain}
		for _, c := range r.Conditions {
			out[i].Conditions = append(out[i].Conditions, sirum.Condition{Attr: c.Attr, Value: c.Value})
		}
	}
	return out
}
