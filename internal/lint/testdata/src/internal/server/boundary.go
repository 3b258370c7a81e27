// Fixture for the importboundary check: the serving path must not import the
// figure harness, directly or through another package.
package server

import (
	"sirum/internal/experiments" // want:importboundary "must not import sirum/internal/experiments"
	"sirum/internal/figures"     // want:importboundary "it reaches sirum/internal/platform"
)

func figureCount() int { return len(experiments.All()) + figures.Count() }
