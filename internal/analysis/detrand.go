package analysis

import "go/types"

// deterministicPkgs are the simulation packages whose runs must be
// bit-identical for a given seed. Inside them, all randomness must come
// from a seeded *rand.Rand (netsim.Sim.Rand) and all time from the
// virtual clock; the wall clock and the global math/rand state are
// process-wide and unordered across runs and goroutines.
//
// internal/obs and internal/experiment are deliberately absent: obs
// timers and the runner's progress reporting are wall-clock-only
// instrumentation that never feeds back into simulation state.
var deterministicPkgs = []string{
	"internal/bgp",
	"internal/netsim",
	"internal/dataplane",
	"internal/dns",
	"internal/core",
	"internal/scenario",
	"internal/iptrie",
	"internal/topology",
	"internal/collector",
	"internal/traffic",
}

func isDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if pkgPathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

// nondetKind names one family of nondeterminism sources.
type nondetKind int

const (
	nondetNone       nondetKind = iota
	nondetGlobalRand            // math/rand, math/rand/v2: the process-wide generator
	nondetCryptoRand            // crypto/rand
	nondetWallClock             // time: reads or schedules against the wall clock
)

// randSeeded lists the package-level functions of the random packages
// that are safe in deterministic code: constructors that produce a seeded
// generator rather than drawing from the global one.
var randSeeded = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
	"NewZipf":    true, // takes a *Rand; draws through it
}

// wallClock lists the package-level time functions that read or schedule
// against the wall clock. Types (Duration, Time) and pure conversions
// remain usable.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// nondetSource classifies a package-level name as one of the
// nondeterminism sources detrand bans in simulation packages.
func nondetSource(pkgPath, name string) nondetKind {
	switch pkgPath {
	case "math/rand", "math/rand/v2":
		if !randSeeded[name] {
			return nondetGlobalRand
		}
	case "crypto/rand":
		return nondetCryptoRand
	case "time":
		if wallClock[name] {
			return nondetWallClock
		}
	}
	return nondetNone
}

// AnalyzerDetrand (cdnlint/detrand) forbids global randomness and wall
// clock reads inside the deterministic simulation packages: package-level
// math/rand and math/rand/v2 functions (which draw from the process-wide
// generator), crypto/rand, and time.Now/Since/Until and friends. Methods
// on an explicitly seeded *rand.Rand are always allowed.
var AnalyzerDetrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand, crypto/rand, and wall-clock time in deterministic simulation packages; " +
		"draw randomness from the seeded netsim.Sim.Rand and time from the virtual clock",
	Run: runDetrand,
}

func runDetrand(pass *Pass) {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return
	}
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		var pkgPath, name string
		if ok {
			if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				continue // builtins and methods (seeded *rand.Rand draws)
			}
			pkgPath, name = fn.Pkg().Path(), fn.Name()
		} else if v, okv := obj.(*types.Var); okv && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			pkgPath, name = v.Pkg().Path(), v.Name() // e.g. crypto/rand.Reader
		} else {
			continue
		}
		switch nondetSource(pkgPath, name) {
		case nondetGlobalRand:
			pass.Reportf(id.Pos(), "global %s.%s draws from the process-wide generator; "+
				"use the simulation's seeded *rand.Rand (netsim.Sim.Rand)", pkgPath, name)
		case nondetCryptoRand:
			pass.Reportf(id.Pos(), "crypto/rand.%s is non-deterministic; "+
				"use the simulation's seeded *rand.Rand (netsim.Sim.Rand)", name)
		case nondetWallClock:
			pass.Reportf(id.Pos(), "time.%s reads the wall clock; deterministic packages must use "+
				"virtual time (netsim.Sim.Now)", name)
		}
	}
}
