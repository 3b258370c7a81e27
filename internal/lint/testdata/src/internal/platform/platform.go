// Stand-in for the platform cost profiles: off the serving path.
package platform

func Profiles() []string { return nil }
