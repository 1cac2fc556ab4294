package experiment

import (
	"fmt"
	"strconv"

	"bestofboth/internal/bgp"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// Option mutates a WorldConfig under construction; see DefaultWorldConfig.
type Option func(*WorldConfig)

// DefaultWorldConfig builds the evaluation's baseline configuration — seed
// 42, generator-default topology (~900 ASes), bgp.DefaultConfig timing —
// with any options applied on top. It replaces hand-assembled WorldConfig
// literals in cmd/cdnsim and tests:
//
//	cfg := experiment.DefaultWorldConfig(
//		experiment.WithSeed(7),
//		experiment.WithScale(0.5),
//	)
func DefaultWorldConfig(opts ...Option) WorldConfig {
	cfg := WorldConfig{Seed: 42}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithSeed sets the simulation seed (identical seeds reproduce runs
// bit-for-bit).
func WithSeed(seed int64) Option {
	return func(c *WorldConfig) { c.Seed = seed }
}

// WithDamping enables route-flap damping (RFC 2439), filling the rest of
// the BGP config with defaults first so the override survives fillDefaults.
func WithDamping() Option {
	return func(c *WorldConfig) {
		if c.BGP == (bgp.Config{}) {
			c.BGP = bgp.DefaultConfig()
		}
		c.BGP.Damping = true
	}
}

// WithObs attaches an observability registry: every world built from the
// config instruments all layers into r.
func WithObs(r *obs.Registry) Option {
	return func(c *WorldConfig) { c.Obs = r }
}

// WithScale scales the default topology's per-class AS counts by f
// (1.0 ≈ 900 ASes), with floors keeping tiny scales connected. f <= 0 or
// f == 1 leaves the generator defaults untouched.
func WithScale(f float64) Option {
	return func(c *WorldConfig) {
		if f <= 0 || f == 1.0 {
			return
		}
		c.Topology = topology.GenConfig{
			NumTransit:    maxInt(20, int(60*f)),
			NumRegional:   maxInt(8, int(40*f)),
			NumEyeball:    maxInt(20, int(150*f)),
			NumStub:       maxInt(40, int(600*f)),
			NumUniversity: maxInt(8, int(36*f)),
		}
	}
}

// WithShards splits each world's BGP speakers across n shard simulators
// run in deterministic phase-barrier rounds (bgp.NewSharded). n <= 1 keeps
// the classic single-kernel world. Converged route-state and FIB digests
// are bit-identical at any shard count; transient message timing (and so
// timing-derived figures) follows each shard's jitter stream. Every shard
// count is individually deterministic: same seed + same shards ⇒
// bit-identical everything.
func WithShards(n int) Option {
	return func(c *WorldConfig) { c.Shards = n }
}

// WithDefaultDemand attaches the demand model to every world built from the
// config: each client target gets a seeded Pareto (α=1.2) request rate out
// of 120K rps aggregate and each site an even share of 1.25× that as
// capacity (internal/traffic).
func WithDefaultDemand() Option {
	return func(c *WorldConfig) { c.Demand.Enabled = true }
}

// PaperScale is the topology multiplier of the paper-scale preset: ~4× the
// default world (≈3,500 ASes), the regime where the zero-copy kernel's
// savings dominate and Figure 2 sweeps 50K-target selections end-to-end.
const PaperScale = 4.0

// InternetScale is the topology multiplier of the internet-scale preset:
// ≈81× the default world, ≈72K ASes — the order of today's announced AS
// count. Worlds at this scale hold ~72K speakers' RIBs plus interned
// paths; the recorded reference converge (TestInternetScaleConverge,
// seed 42, shards=8) peaks at ~1.6 GiB resident with ~3.9 GiB total
// allocated — budget ~4 GiB and pair the preset with -shards to keep
// convergence wall-clock tolerable.
const InternetScale = 81.0

// WithInternetScale applies the internet-scale preset topology (see
// InternetScale for the memory budget).
func WithInternetScale() Option {
	return WithScale(InternetScale)
}

// ParseScale reads a -scale flag value: a positive topology multiplier
// (1 ≈ 900 ASes) or one of the named presets "paper" (PaperScale) and
// "internet" (InternetScale).
func ParseScale(s string) (float64, error) {
	switch s {
	case "paper":
		return PaperScale, nil
	case "internet":
		return InternetScale, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf(`scale must be a positive number, "paper", or "internet", got %q`, s)
	}
	return f, nil
}

// PaperTargetsPerSite is the per-site target-selection cap the paper's
// evaluation uses (§5.1: ~50K /24s per failed site).
const PaperTargetsPerSite = 50000

// WithPaperScale applies the paper-scale preset topology. Callers that
// honor the preset fully should also raise their selection cap to
// PaperTargetsPerSite.
func WithPaperScale() Option {
	return WithScale(PaperScale)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
