// Stand-in for the figure harness: off the serving path.
package experiments

func All() []string { return nil }
