// Fixture for the importboundary check: a package off the serving path may
// import the platform profiles, but reaching it from the serving path is a
// transitive violation (see internal/server/boundary.go).
package figures

import "sirum/internal/platform" // ok: not a serving package

func Count() int { return len(platform.Profiles()) }
