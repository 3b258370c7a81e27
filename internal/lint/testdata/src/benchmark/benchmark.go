// Stand-in for the repository benchmark: off the serving path.
package benchmark

func Workloads() []string { return nil }
