// Package miner implements SIRUM itself: the greedy informative-rule mining
// loop of Algorithm 2 executed on the distributed engine, in every variant
// of Table 4.2 — Naive (shuffle joins), Baseline/BJ (broadcast joins), RCT
// (fast iterative scaling), FastPruning (inverted-index LCAs), FastAncestor
// (column-grouped ancestor generation), Multi-rule (several disjoint rules
// per iteration) and Optimized (all of the above) — plus SIRUM on sample
// data (Section 4.5) and the extensions listed in DESIGN.md §5.
//
// A cold run (Miner.Run) executes the paper's per-iteration work profile:
// every greedy round recomputes candidate pruning, the cube and the sample
// fix-up. A prepared session (Prep) instead builds the estimate-independent
// part of rule generation once per candidate space — the leaf memo and, on
// packed schemas, the frozen lattice (lattice.go, cube.Lattice) — and every
// round of every query only gathers leaf Σm̂ and replays the lattice's edges.
// See Prep for what is shared, what invalidates it and what it costs;
// PrepOptions.DisableLCAMemo switches all of it off. A Prep owns its cached
// data blocks, whichever backend it shares: Prep.Drop releases them, and the
// next query reloads them.
package miner

import (
	"fmt"
	"time"

	"sirum/internal/rule"
)

// Variant selects a SIRUM implementation from Table 4.2.
type Variant int

const (
	// Naive repartitions D for every join (the distributed analogue of
	// prior work [16]) and uses naive iterative scaling.
	Naive Variant = iota
	// Baseline is BJ SIRUM: broadcast joins, otherwise naive everything.
	Baseline
	// RCT adds the Rule Coverage Table scaler (Section 4.1).
	RCT
	// FastPruning adds inverted-index candidate pruning (Section 4.2).
	FastPruning
	// FastAncestor adds column-grouped ancestor generation (Section 4.3).
	FastAncestor
	// MultiRule adds multiple disjoint rules per iteration (Section 4.4).
	MultiRule
	// Optimized combines RCT, FastPruning, FastAncestor and MultiRule.
	Optimized
)

// String names the variant as in the thesis' plots.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "Naive"
	case Baseline:
		return "Baseline"
	case RCT:
		return "RCT"
	case FastPruning:
		return "FastPruning"
	case FastAncestor:
		return "FastAncestor"
	case MultiRule:
		return "Multi-rule"
	case Optimized:
		return "Optimized"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists all variants in Table 4.2 order.
func Variants() []Variant {
	return []Variant{Naive, Baseline, RCT, FastPruning, FastAncestor, MultiRule, Optimized}
}

// Options configures a mining run. The zero value plus a K is usable:
// defaults follow the thesis' evaluation settings.
type Options struct {
	Variant Variant
	// K is the number of rules to generate in addition to the always-first
	// all-wildcards rule.
	K int
	// SampleSize is |s| for sample-based candidate pruning; 0 disables
	// pruning and explores candidates exhaustively.
	SampleSize int
	// Epsilon is the iterative-scaling convergence threshold (default 0.01).
	Epsilon float64
	// Seed drives all sampling (default 1).
	Seed int64
	// Partitions overrides the number of data blocks (default: cluster's).
	Partitions int

	// RulesPerIter is l, the number of mutually disjoint rules added per
	// iteration. Defaults to 1, or 2 for MultiRule/Optimized.
	RulesPerIter int
	// TopPercent bounds the rank of extra rules per iteration to the top
	// fraction of candidates by gain (default 0.01).
	TopPercent float64
	// MinGainRatio requires extra rules to have at least this fraction of
	// the iteration's top gain (default 0.5).
	MinGainRatio float64
	// TopPoolSize is how many top candidates are gathered to the driver for
	// multi-rule selection (default 1024).
	TopPoolSize int

	// ColumnGroups is g for fast candidate rule processing. Defaults to 1,
	// or 2 for FastAncestor/Optimized.
	ColumnGroups int

	// TargetKL, when positive, keeps iterating past K rules until the KL
	// divergence drops to the target (the l-rule* runs of Section 5.5).
	TargetKL float64
	// MaxRules caps the rule list for TargetKL runs (default 4*K).
	MaxRules int

	// SampleFraction, in (0,1), mines on a Bernoulli sample of D instead of
	// D itself (SIRUM on sample data, Section 4.5).
	SampleFraction float64

	// PriorRules are appended (after the all-wildcards rule) before mining
	// starts — the data-cube exploration application seeds the user's
	// prior knowledge this way (Section 5.6.2).
	PriorRules []rule.Rule
	// ResetScaling replays prior work's iterative scaling [29]: reset all
	// multipliers whenever rules are added. Only meaningful without RCT.
	ResetScaling bool

	// PruneRedundantAncestors enables the future-work optimization of
	// Chapter 7: candidates with the same support as one of their children
	// are dropped before scoring.
	PruneRedundantAncestors bool

	// EvaluateOnFullData, with SampleFraction set, additionally fits the
	// mined rules on the full dataset to report the true KL/information
	// gain (the quality metric of Figures 5.18/5.19).
	EvaluateOnFullData bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RulesPerIter <= 0 {
		if o.Variant == MultiRule || o.Variant == Optimized {
			o.RulesPerIter = 2
		} else {
			o.RulesPerIter = 1
		}
	}
	if o.TopPercent <= 0 {
		o.TopPercent = 0.01
	}
	if o.MinGainRatio <= 0 {
		o.MinGainRatio = 0.5
	}
	if o.TopPoolSize <= 0 {
		o.TopPoolSize = 1024
	}
	if o.ColumnGroups <= 0 {
		if o.Variant == FastAncestor || o.Variant == Optimized {
			o.ColumnGroups = 2
		} else {
			o.ColumnGroups = 1
		}
	}
	if o.MaxRules <= 0 {
		o.MaxRules = 4 * o.K
	}
	return o
}

// useRCT reports whether the variant scales with the Rule Coverage Table.
func (o Options) useRCT() bool { return o.Variant == RCT || o.Variant == Optimized }

// useIndex reports whether LCA generation uses the inverted index.
func (o Options) useIndex() bool { return o.Variant == FastPruning || o.Variant == Optimized }

// useShuffleJoin reports whether joins repartition D (Naive only).
func (o Options) useShuffleJoin() bool { return o.Variant == Naive }

// MinedRule is one rule of the output list with its display aggregates
// (Table 1.2's AVG and count columns) and the gain estimate at selection.
type MinedRule struct {
	Rule  rule.Rule
	Avg   float64 // average measure over the support set, original scale
	Count int64   // |S_D(r)|
	Gain  float64 // information-gain estimate when selected
}

// Result reports a completed mining run.
type Result struct {
	Rules []MinedRule
	// KL is the final divergence between measure and estimates on the data
	// actually mined (the sample when SampleFraction is set).
	KL float64
	// KLTrajectory records KL after each iteration.
	KLTrajectory []float64
	// InfoGain is the information gain of the final rule set (Section 5.1),
	// on the full dataset when EvaluateOnFullData is set.
	InfoGain float64
	// Iterations is the number of greedy iterations executed.
	Iterations int
	// Candidates is the number of distinct candidate rules of the last
	// iteration (Figure 5.8's denominator).
	Candidates int64

	// WallTime and SimTime cover the mining loop (excluding full-data
	// re-evaluation).
	WallTime time.Duration
	SimTime  time.Duration
	// Phase durations, keyed by the metrics.Phase* names; Sim variants hold
	// simulated durations.
	Phases    map[string]time.Duration
	SimPhases map[string]time.Duration
	// Counters snapshots the cluster metrics registry.
	Counters map[string]int64
}
