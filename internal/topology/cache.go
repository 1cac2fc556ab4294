package topology

import (
	"fmt"
	"sync"
)

// genCache memoizes Generate results. Generation is deterministic in
// GenConfig, and one experiment matrix regenerates the identical topology
// for every ⟨technique, failed site⟩ run, so paying the generator (random
// graph wiring, geo embedding, validation) once per distinct configuration
// is a large win. A Topology is immutable after Build — faults live in BGP
// session state and dataplane.SetDown, never in the graph — so every caller
// shares the one memoized instance.
var genCache = struct {
	sync.Mutex
	m map[string]*genEntry
}{m: map[string]*genEntry{}}

// genCacheCap bounds the number of retained topologies. Experiment suites
// use a handful of configurations; the cap only guards pathological callers
// sweeping hundreds of configs.
const genCacheCap = 32

type genEntry struct {
	once sync.Once
	topo *Topology
	err  error
}

// genKey canonicalizes a GenConfig into a cache key. GenConfig contains only
// value fields and a string slice, so the formatted representation is a
// faithful identity.
func genKey(cfg GenConfig) string {
	return fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d|%d|%d|%q|%d",
		cfg.Seed, cfg.NumTier1, cfg.NumTransit, cfg.NumRegional, cfg.NumREN,
		cfg.NumUniversity, cfg.NumEyeball, cfg.NumStub, cfg.NumHypergiant,
		cfg.SiteCodes, cfg.CDNSharedProviders)
}

// Cached returns the topology for cfg, generating it at most once per
// distinct configuration. Every call with the same cfg returns the same
// instance, which callers must treat as read-only. It is safe for
// concurrent use; concurrent callers with the same cfg share one generation.
func Cached(cfg GenConfig) (*Topology, error) {
	key := genKey(cfg)
	genCache.Lock()
	e, ok := genCache.m[key]
	if !ok {
		if len(genCache.m) >= genCacheCap {
			// Cache full: generate without memoizing rather than evicting a
			// possibly hot entry.
			genCache.Unlock()
			return Generate(cfg)
		}
		e = &genEntry{}
		genCache.m[key] = e
	}
	genCache.Unlock()
	e.once.Do(func() {
		e.topo, e.err = Generate(cfg)
	})
	return e.topo, e.err
}
