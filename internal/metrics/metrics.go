// Package metrics provides the counters and phase timers used to instrument
// SIRUM. The thesis' profiling study (Chapter 3) breaks runtime into
// rule-generation sub-steps and iterative scaling and counts emitted ancestor
// pairs (Figure 5.8); this package supplies those instruments. Operators
// record the work they do here, and the simulated backend prices the same
// counts into cluster time.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Well-known counter names used across the repository.
const (
	CtrPairsEmitted   = "pairs_emitted"    // ancestor key/value pairs emitted by mappers
	CtrShuffleBytes   = "shuffle_bytes"    // bytes moved across executors
	CtrShuffleRecords = "shuffle_records"  // records moved across executors
	CtrBroadcastBytes = "broadcast_bytes"  // bytes replicated to every executor
	CtrSpillBytes     = "spill_bytes"      // bytes written to disk by the cache
	CtrSpillReads     = "spill_read_bytes" // bytes re-read from spilled partitions
	CtrDiskReadBytes  = "disk_read_bytes"  // bytes loaded from storage into the cache
	CtrJobs           = "jobs"             // map-reduce job boundaries (one per cube round)
	CtrScanRows       = "scan_rows"        // dataset rows scanned
	CtrLCAComparisons = "lca_comparisons"  // attribute comparisons during LCA computation
	CtrCandidates     = "candidates"       // distinct candidate rules evaluated
	CtrScalingLoops   = "scaling_loops"    // iterative scaling inner-loop iterations
	CtrTasks          = "tasks"            // engine tasks executed
	CtrStages         = "stages"           // engine stages executed
	CtrScratchBorrows = "scratch_borrows"  // scratch tables borrowed from the backend arena
	CtrScratchReuses  = "scratch_reuses"   // borrows served from the arena free list
)

// Well-known phase names (Figure 3.1 / 3.2 breakdowns).
const (
	PhaseRuleGen       = "rule_generation"
	PhaseScaling       = "iterative_scaling"
	PhaseCandPruning   = "candidate_pruning"
	PhaseAncestorGen   = "ancestor_generation"
	PhaseGainComputing = "gain_computation"
	PhaseRuleSelection = "rule_selection"
	PhaseDataLoad      = "data_load"
	PhaseWriteback     = "estimate_writeback"
)

// Registry is a thread-safe bundle of named counters and phase durations.
// A registry made by Child forwards every Add, AddPhase and AddSimPhase to
// its parent as well, so a per-query registry and the lifetime registry above
// it each see every recording exactly once, as it happens. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	parent   *Registry
	counters map[string]int64
	phases   map[string]time.Duration
	sim      map[string]time.Duration // simulated-cluster-time phase durations
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		phases:   make(map[string]time.Duration),
		sim:      make(map[string]time.Duration),
	}
}

// Child returns an empty registry whose recordings also land in r.
func (r *Registry) Child() *Registry {
	c := NewRegistry()
	c.parent = r
	return c
}

// Add increments counter name by delta here and in every ancestor.
func (r *Registry) Add(name string, delta int64) {
	for ; r != nil; r = r.parent {
		r.mu.Lock()
		r.counters[name] += delta
		r.mu.Unlock()
	}
}

// Counter returns the current value of a counter (0 if never written).
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// AddPhase adds wall-clock duration d to the named phase here and in every
// ancestor.
func (r *Registry) AddPhase(name string, d time.Duration) {
	for ; r != nil; r = r.parent {
		r.mu.Lock()
		r.phases[name] += d
		r.mu.Unlock()
	}
}

// AddSimPhase adds simulated-cluster duration d to the named phase here and
// in every ancestor.
func (r *Registry) AddSimPhase(name string, d time.Duration) {
	for ; r != nil; r = r.parent {
		r.mu.Lock()
		r.sim[name] += d
		r.mu.Unlock()
	}
}

// Phase returns the accumulated wall-clock duration of a phase.
func (r *Registry) Phase(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phases[name]
}

// SimPhase returns the accumulated simulated duration of a phase.
func (r *Registry) SimPhase(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sim[name]
}

// Counters returns a copy of all counters.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Phases returns a copy of all wall-clock phase durations.
func (r *Registry) Phases() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.phases))
	for k, v := range r.phases {
		out[k] = v
	}
	return out
}

// SimPhases returns a copy of all simulated-cluster phase durations.
func (r *Registry) SimPhases() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.sim))
	for k, v := range r.sim {
		out[k] = v
	}
	return out
}

// Snapshot is a point-in-time, JSON-serializable copy of a registry:
// counters plus wall-clock and simulated phase durations (nanoseconds on the
// wire, time.Duration's encoding). A server returns one per query response
// so clients see exactly what the query cost.
type Snapshot struct {
	Counters  map[string]int64         `json:"counters,omitempty"`
	Phases    map[string]time.Duration `json:"phases_ns,omitempty"`
	SimPhases map[string]time.Duration `json:"sim_phases_ns,omitempty"`
}

// Snapshot copies the registry's current state. Empty maps are omitted so
// the zero registry serializes to {}.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.phases) > 0 {
		s.Phases = make(map[string]time.Duration, len(r.phases))
		for k, v := range r.phases {
			s.Phases[k] = v
		}
	}
	if len(r.sim) > 0 {
		s.SimPhases = make(map[string]time.Duration, len(r.sim))
		for k, v := range r.sim {
			s.SimPhases[k] = v
		}
	}
	return s
}

// Merge adds every counter and phase of o into r (and r's ancestors).
func (r *Registry) Merge(o *Registry) {
	snap := o.Snapshot()
	for k, v := range snap.Counters {
		r.Add(k, v)
	}
	for k, v := range snap.Phases {
		r.AddPhase(k, v)
	}
	for k, v := range snap.SimPhases {
		r.AddSimPhase(k, v)
	}
}

// Reset clears all counters and phases of r; ancestors keep theirs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]int64)
	r.phases = make(map[string]time.Duration)
	r.sim = make(map[string]time.Duration)
}

// String renders the registry sorted by name, for logs and debugging.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, "%s=%d ", k, r.counters[k])
	}
	names = names[:0]
	for k := range r.phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "%s=%s ", k, r.phases[k])
	}
	return strings.TrimSpace(sb.String())
}
