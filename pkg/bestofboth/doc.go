// Package bestofboth is the public facade over the simulator: one import
// exposing everything a typical program needs — building worlds, deploying
// the paper's routing techniques, injecting failures, probing the data
// plane, and reading metrics — without reaching into internal packages.
//
//	w, err := bestofboth.NewWorld(bestofboth.DefaultWorldConfig(
//		bestofboth.WithSeed(7),
//	))
//	...
//	w.CDN.Deploy(bestofboth.ReactiveAnycast{})
//	w.Converge(3600)
//	tr, err := w.CDN.FailSite("atl")
//
// Every name is a type alias or thin wrapper: values are interchangeable
// with the underlying internal types, and the facade adds no behavior.
//
// The package is split by concern:
//
//   - world.go: building and configuring simulated Internets
//   - lifecycle.go: the CDN controller, techniques, and site lifecycle
//   - netstack.go: data plane, DNS, topology, and BGP policy
//   - observe.go: metrics
//   - statistics.go: distributions and tables
//
// Serialized output lives in the subpackage api ([Version]ed wire types):
// experiment manifests, -json reports, and the control-plane daemon's
// request/response schema (WorldState, ChangeSet, Receipt). Programs that
// persist or exchange simulator state should use api types, never the
// in-memory types this package aliases.
package bestofboth
