package bestofboth

import (
	"bestofboth/internal/obs"
)

// Registry collects metrics across every instrumented layer. A nil
// *Registry disables collection at near-zero cost.
type Registry = obs.Registry

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }
