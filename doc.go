// Package bestofboth reproduces "The Best of Both Worlds: High
// Availability CDN Routing Without Compromising Control" (Zhu, Vermeulen,
// Cunha, Katz-Bassett, Calder — IMC 2022) as a self-contained Go library.
//
// The paper's techniques — reactive-anycast and proactive-prepending —
// combine unicast's precise client-to-site control with anycast's fast
// BGP-driven failover. Because evaluating them requires announcing real
// anycast prefixes from a multi-site deployment, this reproduction builds
// the whole substrate in simulation: an AS-level Internet with Gao-Rexford
// routing policies (internal/topology, internal/bgp), FIB-driven packet
// forwarding (internal/dataplane), DNS with TTL-violating clients
// (internal/dns), RIS-style route collectors (internal/collector), the CDN
// controller and all six routing techniques (internal/core), and the full
// evaluation harness (internal/experiment, internal/trace).
//
// Entry points:
//
//   - cmd/cdnsim regenerates every figure and table from the paper, runs
//     fault-injection scenarios, serves and drives the control-plane
//     daemon, and inspects the synthetic Internet (cdnsim -h).
//   - examples/ contains runnable walkthroughs of the simulator as a library.
//   - bench_test.go benchmarks each experiment and the design ablations.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results next to the paper's.
package bestofboth
