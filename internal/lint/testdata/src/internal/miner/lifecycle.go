// Fixture for the pairedlifecycle check: every acquisition of an
// *engine.QueryScope must be discharged — deferred, finished on all paths,
// or handed off.
package miner

import "sirum/internal/engine"

type holder struct {
	qc *engine.QueryScope
}

// scoped acquires a scope alongside a second result, so the fixtures cover
// lifecycle values bound from multi-result calls.
func scoped(b engine.Backend) (*engine.QueryScope, bool) {
	return engine.NewQueryScope(b), true
}

func leakScope(b engine.Backend) {
	qc := engine.NewQueryScope(b) // want:pairedlifecycle "never Finished"
	_ = qc
}

func goodScope(b engine.Backend) {
	qc := engine.NewQueryScope(b)
	defer qc.Finish()
}

func closedScope(b engine.Backend) {
	qc := engine.NewQueryScope(b)
	defer qc.Close()
}

func leak(b engine.Backend) int {
	qc, ok := scoped(b) // want:pairedlifecycle "never Finished"
	if !ok {
		return 0
	}
	_ = qc
	return 1
}

func readThrough(b engine.Backend) engine.Backend {
	qc := engine.NewQueryScope(b) // want:pairedlifecycle "never Finished"
	return qc.Base()              // reading through the scope does not hand it off
}

func discarded(b engine.Backend) bool {
	_, ok := scoped(b) // want:pairedlifecycle "discarded"
	return ok
}

func errPath(b engine.Backend, fail bool) bool {
	qc, _ := scoped(b) // want:pairedlifecycle "not released on all paths"
	if fail {
		return false
	}
	qc.Finish()
	return true
}

func linear(b engine.Backend) {
	qc, _ := scoped(b) // ok: finished before the function ends
	qc.Finish()
}

func releaseThenReturn(b engine.Backend, fail bool) bool {
	qc, _ := scoped(b) // ok: finished before every return
	qc.Finish()
	if fail {
		return false
	}
	return true
}

func escapes(b engine.Backend) (func(), bool) {
	qc, ok := scoped(b)
	return qc.Finish, ok // ok: obligation handed to the caller
}

func escapesValue(b engine.Backend) *engine.QueryScope {
	qc := engine.NewQueryScope(b)
	return qc // ok: handed off
}

func deferClosure(b engine.Backend) {
	qc := engine.NewQueryScope(b) // ok: finished via deferred closure
	defer func() { qc.Finish() }()
}

func stored(b engine.Backend, h *holder) {
	qc := engine.NewQueryScope(b)
	h.qc = qc // ok: stored; the holder owns it now
}

func handoff(b engine.Backend) {
	qc := engine.NewQueryScope(b)
	hand(qc) // ok: passed along
}

func putEscapes(b engine.Backend) (engine.Backend, func()) {
	qc := engine.NewQueryScope(b)
	return qc.Base(), qc.Finish // ok: the method value hands it off
}

func suppressed(b engine.Backend) {
	//sirum:allow pairedlifecycle — finished by the fixture harness out of band
	qc := engine.NewQueryScope(b)
	_ = qc
}

func hand(*engine.QueryScope) {}
