package topology

import (
	"fmt"

	"bestofboth/internal/memo"
)

// genCache memoizes Generate, which is deterministic in GenConfig: the
// worlds of one configuration (each technique's converged world, target
// selection's) pay the generator once. A Topology is immutable after Build
// — faults live in BGP session state and dataplane.SetDown, never in the
// graph — so every caller shares the one memoized instance.
var genCache memo.Cache[*Topology]

// genKey keys on cfg's whole value, so a field added to GenConfig keys too.
func genKey(cfg GenConfig) string {
	return fmt.Sprintf("%#v", cfg)
}

// Cached returns the read-only topology for cfg, generated at most once
// while cfg is among the memo.Cap most recently used configurations. It is
// safe for concurrent use; concurrent callers with the same cfg share one
// generation.
func Cached(cfg GenConfig) (*Topology, error) {
	topo, _, _, err := genCache.Get(genKey(cfg), func() (*Topology, error) { return Generate(cfg) })
	return topo, err
}
