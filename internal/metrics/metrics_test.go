package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != 0 {
		t.Error("fresh counter not zero")
	}
	r.Add("x", 3)
	r.Add("x", 4)
	r.Add("y", -1)
	if got := r.Counter("x"); got != 7 {
		t.Errorf("x = %d, want 7", got)
	}
	if got := r.Counter("y"); got != -1 {
		t.Errorf("y = %d, want -1", got)
	}
	all := r.Counters()
	if len(all) != 2 || all["x"] != 7 {
		t.Errorf("Counters() = %v", all)
	}
	all["x"] = 999 // mutating the copy must not affect the registry
	if r.Counter("x") != 7 {
		t.Error("Counters() returned a live map")
	}
}

func TestPhases(t *testing.T) {
	r := NewRegistry()
	r.AddPhase(PhaseScaling, time.Second)
	r.AddPhase(PhaseScaling, 2*time.Second)
	if got := r.Phase(PhaseScaling); got != 3*time.Second {
		t.Errorf("Phase = %v, want 3s", got)
	}
	r.AddSimPhase(PhaseRuleGen, time.Minute)
	if got := r.SimPhase(PhaseRuleGen); got != time.Minute {
		t.Errorf("SimPhase = %v, want 1m", got)
	}
	if r.SimPhase("missing") != 0 {
		t.Error("missing sim phase not zero")
	}
}

func TestTimed(t *testing.T) {
	r := NewRegistry()
	r.Timed("work", func() { time.Sleep(5 * time.Millisecond) })
	if got := r.Phase("work"); got < 4*time.Millisecond {
		t.Errorf("Timed recorded %v, want >= ~5ms", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add("x", 1)
	a.AddPhase("p", time.Second)
	b.Add("x", 2)
	b.Add("z", 5)
	b.AddPhase("p", time.Second)
	b.AddSimPhase("s", time.Minute)
	a.Merge(b)
	if a.Counter("x") != 3 || a.Counter("z") != 5 {
		t.Errorf("merge counters: x=%d z=%d", a.Counter("x"), a.Counter("z"))
	}
	if a.Phase("p") != 2*time.Second {
		t.Errorf("merge phase p = %v", a.Phase("p"))
	}
	if a.SimPhase("s") != time.Minute {
		t.Errorf("merge sim phase s = %v", a.SimPhase("s"))
	}
	// b unchanged.
	if b.Counter("x") != 2 {
		t.Error("merge mutated source")
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Add("x", 1)
	r.AddPhase("p", time.Second)
	r.Reset()
	if r.Counter("x") != 0 || r.Phase("p") != 0 {
		t.Error("reset did not clear registry")
	}
}

func TestString(t *testing.T) {
	r := NewRegistry()
	r.Add("b", 2)
	r.Add("a", 1)
	r.AddPhase("p", time.Second)
	s := r.String()
	if !strings.Contains(s, "a=1") || !strings.Contains(s, "b=2") || !strings.Contains(s, "p=1s") {
		t.Errorf("String = %q", s)
	}
	if strings.Index(s, "a=1") > strings.Index(s, "b=2") {
		t.Errorf("String not sorted: %q", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add("n", 1)
				r.AddPhase("p", time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Errorf("n = %d, want 8000", got)
	}
	if got := r.Phase("p"); got != 8000*time.Nanosecond {
		t.Errorf("p = %v, want 8000ns", got)
	}
}

// TestChildForwardsToParent pins the per-query registry contract: every
// recording on a child lands once in the child and once in its parent, live,
// also when many children record concurrently.
func TestChildForwardsToParent(t *testing.T) {
	parent := NewRegistry()
	children := make([]*Registry, 8)
	var wg sync.WaitGroup
	for i := range children {
		children[i] = parent.Child()
		wg.Add(1)
		go func(c *Registry) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("n", 1)
				c.AddPhase("p", time.Nanosecond)
				c.AddSimPhase("s", time.Microsecond)
			}
		}(children[i])
	}
	wg.Wait()
	for i, c := range children {
		if c.Counter("n") != 100 || c.Phase("p") != 100*time.Nanosecond || c.SimPhase("s") != 100*time.Microsecond {
			t.Errorf("child %d = %s / %v", i, c, c.SimPhases())
		}
	}
	if got := parent.Counter("n"); got != 800 {
		t.Errorf("parent n = %d, want 800", got)
	}
	if got := parent.Phase("p"); got != 800*time.Nanosecond {
		t.Errorf("parent p = %v, want 800ns", got)
	}
	if got := parent.SimPhase("s"); got != 800*time.Microsecond {
		t.Errorf("parent s = %v, want 800µs", got)
	}
	children[0].Reset()
	if parent.Counter("n") != 800 {
		t.Error("resetting a child cleared its parent")
	}
	if parent.Child().Counter("n") != 0 {
		t.Error("a new child starts with its parent's counts")
	}
}
