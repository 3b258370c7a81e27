// Fixture for the importboundary check: a justified exception is suppressed.
package router

//sirum:allow importboundary fixture for the suppression path
import "sirum/internal/platform"

func profileCount() int { return len(platform.Profiles()) }
