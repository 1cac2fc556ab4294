package bestofboth

import (
	"bestofboth/internal/experiment"
)

// World bundles one fully wired simulation: topology, BGP speakers,
// FIB-driven data plane, CDN controller, and a route collector.
type World = experiment.World

// WorldConfig parameterizes one simulated Internet + CDN instance.
type WorldConfig = experiment.WorldConfig

// Option mutates a WorldConfig under construction; see DefaultWorldConfig.
type Option = experiment.Option

// Runner executes experiment matrices across a worker pool with
// converged-world snapshot reuse.
type Runner = experiment.Runner

// NewWorld builds a world from cfg. No technique is deployed yet.
func NewWorld(cfg WorldConfig) (*World, error) { return experiment.NewWorld(cfg) }

// NewConvergedWorld builds a world, deploys tech, and converges it within
// bound virtual seconds — the usual starting point for interactive use and
// the state the control-plane daemon serves.
func NewConvergedWorld(cfg WorldConfig, tech Technique, bound float64) (*World, error) {
	return experiment.NewConvergedWorld(cfg, tech, bound)
}

// DefaultWorldConfig builds the evaluation's baseline configuration (seed
// 42, ~900-AS topology) with options applied on top.
func DefaultWorldConfig(opts ...Option) WorldConfig { return experiment.DefaultWorldConfig(opts...) }

// WithSeed sets the simulation seed.
func WithSeed(seed int64) Option { return experiment.WithSeed(seed) }

// WithDamping enables RFC 2439 route-flap damping with default parameters.
func WithDamping() Option { return experiment.WithDamping() }

// WithObs attaches a metrics registry to every world built from the config.
func WithObs(r *Registry) Option { return experiment.WithObs(r) }

// WithScale scales the default topology's AS counts (1.0 ≈ 900 ASes).
func WithScale(f float64) Option { return experiment.WithScale(f) }

// WithShards splits each world's BGP speakers across n shard simulators run
// in deterministic phase-barrier rounds; results are bit-identical at any
// shard count, only wall-clock time changes.
func WithShards(n int) Option { return experiment.WithShards(n) }

// WithDefaultDemand attaches the default demand model (Pareto rates, 1.25x
// capacity headroom), enabling load accounting on every world built from
// the config.
func WithDefaultDemand() Option { return experiment.WithDefaultDemand() }

// WithInternetScale applies the internet-scale preset topology (≈72K ASes;
// see experiment.InternetScale for the memory budget).
func WithInternetScale() Option { return experiment.WithInternetScale() }
