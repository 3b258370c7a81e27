// Package lint is sirum's project-invariant static-analysis suite: the
// conventions that keep the hot paths fast and the serving surface correct,
// turned into machine-checked rules. It is built entirely on the standard
// library (go/parser, go/ast, go/types with a source-based importer), loads
// every package in the module, and reports findings as file:line:col
// diagnostics. The cmd/sirumvet driver runs it in CI; a finding fails the
// build.
//
// # Checks
//
// zerocopykey — in the hot packages (internal/rule, internal/cube,
// internal/candgen, internal/miner, internal/maxent) a
// string(buf) conversion of a []byte must appear directly as a map index or
// a comparison operand. Those two forms the compiler optimizes into
// allocation-free accesses; binding the conversion to a variable, passing it
// as an argument, returning it or storing it in a composite literal
// materializes a copy per call — exactly the per-rule key allocation the
// packed-key cube pipeline (PR 7) eliminated.
//
// pinnedencode — in internal/server non-test files, json.Marshal /
// json.MarshalIndent / json.NewEncoder are forbidden outside api.go (request
// and client-side decoding), snapshot.go (journal persistence) and encode.go
// (the pinned encoder itself). Mine/explore/append results must flow through
// the byte-pinned open-envelope encoder (writeOpenBody, PR 7): its output is
// what the result cache stores, so a stray stock-encoder call would either
// bypass the cache or cache bytes the hot path cannot re-serve.
//
// pairedlifecycle — a call whose results include an *engine.Ref (DataPool
// Put/Acquire), an *engine.QueryScope (NewQueryScope), a *cube.PackedTable
// (BorrowTable) or a *sirum.Prepared (Dataset.Prepare) must pair it with
// Release / Finish / Close in the same function: deferred, called on every
// path, or handed off (returned, stored, or passed along, which transfers
// the obligation to the receiver). Unreleased refs pin pool entries and
// their spill files forever (the PR 3 lifecycle bug class); unfinished
// scopes drop a query's operator metrics from the session's lifetime
// totals; unreleased tables silently fall out of the scratch arena, turning
// the cube's zero-allocation steady state back into an allocation storm;
// an unclosed Prepared leaks a whole mining substrate on the session
// rebuild paths (create, snapshot restore, migration import).
//
// errprefix — fmt.Errorf / errors.New message literals in internal/rule must
// carry the "rule: " prefix and in internal/cube the "cube: " prefix. The
// server's status mapping (internal/server.mapError) classifies by these
// prefixes: "rule:" errors are caller input (400), "cube:" errors are
// pipeline corruption (500). An unprefixed message silently turns a
// validation failure into an internal error or vice versa.
//
// metricname — Prometheus metric families registered in internal/server and
// internal/router (via the local gauge/counter helpers or literal "# HELP"
// text) must match ^sirum[a-z0-9_]*$ and be registered exactly once per
// package: a second HELP/TYPE block for the same family produces an invalid
// exposition document, and off-prefix names escape the cluster rollup's
// naming contract.
//
// importboundary — non-test files of the serving path (the root sirum
// package, internal/server, internal/router, cmd/sirumd, cmd/sirumr) must
// not import internal/experiments, internal/platform or benchmark, directly
// or through any other package. Those are the paper's figure harness, its
// platform cost profiles and the repository benchmark: code a daemon must
// never link. A violation is reported at the serving package's import that
// reaches the forbidden package; imports of other serving packages answer
// for themselves. Test files (the root bench_test.go) are exempt.
//
// # Suppression
//
// A justified exception is annotated in place:
//
//	//sirum:allow <check>[,<check>] <reason>
//
// on the offending line or the line directly above it. Reasons are
// mandatory by convention — a suppression documents why the invariant does
// not apply, e.g. a deliberate copying accessor on a cold path.
//
// # Approximations
//
// pairedlifecycle is a per-function, source-order heuristic, not a CFG
// analysis: a value is "released on all paths" when its closer is deferred,
// or when every return after the acquisition is preceded in source order by
// a closer call or a handoff. Returns on the acquisition's own error path
// ("if err != nil" over the error bound by the same assignment), returns
// inside other function literals, and returns outside the variable's
// declaring scope are exempt — nothing was held on those paths. Branchy
// flows that release before each of several returns may still need a
// suppression; genuinely leaked error paths are exactly what it catches.
package lint
