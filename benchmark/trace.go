package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. The program under test
// carries no spans of its own yet, so every span is recorded here, around
// the calls the benchmark makes into a layer; what happened inside a call
// (phases, counters) rides along as attributes.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for the root
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // offsets from the recorder's origin
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Label  string             `json:"label,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so the untraced run pays
// one nil check per call site.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// spent totals the time the measured window spent on tracing — call
	// sites inside a window charge it — which is what tracing costs the run
	// it observes (see trace.overhead_pct in the README).
	spent atomic.Int64
}

// spentNS returns the time spent recording so far.
func (r *recorder) spentNS() int64 {
	if r == nil {
		return 0
	}
	return r.spent.Load()
}

// charge adds the time since t0 to the tracing total.
func (r *recorder) charge(t0 time.Time) { r.spent.Add(int64(time.Since(t0))) }

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished interval and returns its id for use as a parent.
func (r *recorder) add(parent int, name, label string, start, end time.Time, attrs map[string]float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Label: label,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// open reserves an id for a span whose children finish before it does;
// close fills in its end.
func (r *recorder) open(parent int, name, label string, start time.Time) int {
	return r.add(parent, name, label, start, start, nil)
}

func (r *recorder) close(id int, end time.Time, attrs map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end.Sub(r.origin).Nanoseconds()
	r.spans[id-1].Attrs = attrs
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other and
// may stick out of the parent; only the covered part inside the parent
// counts, once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
