// Fixture for the importboundary check: the CLI is not on the serving path,
// so it may run the figure harness.
package main

import "sirum/internal/experiments" // ok: not a serving package

func main() { _ = experiments.All() }
