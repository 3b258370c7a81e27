// Fixture for the importboundary check: the daemon's command is on the
// serving path too.
package main

import "sirum/benchmark" // want:importboundary "must not import sirum/benchmark"

func main() { _ = benchmark.Workloads() }
