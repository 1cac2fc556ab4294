package bestofboth_test

import (
	"net/netip"
	"testing"

	"bestofboth/pkg/bestofboth"
)

// TestFacadeCompat pins the pre-split public surface: every name programs
// could reference before the facade was split into themed files (and before
// the function-alias vars became real functions) must still compile and
// still mean the same thing. This test is API insurance — if it stops
// compiling, the facade broke somebody.
func TestFacadeCompat(t *testing.T) {
	// Types survive as aliases (compile-time assertions).
	var (
		_ *bestofboth.World
		_ bestofboth.WorldConfig
		_ bestofboth.Option
		_ *bestofboth.Runner
		_ *bestofboth.CDN
		_ *bestofboth.Site
		_ *bestofboth.Monitor
		_ bestofboth.SiteTransition
		_ bestofboth.TransitionKind
		_ bestofboth.Technique
		_ bestofboth.Unicast
		_ bestofboth.Anycast
		_ bestofboth.ProactiveSuperprefix
		_ bestofboth.ReactiveAnycast
		_ bestofboth.ProactivePrepending
		_ bestofboth.Combined
		_ *bestofboth.Registry
		_ *bestofboth.Plane
		_ *bestofboth.Prober
		_ bestofboth.ForwardResult
		_ *bestofboth.Authoritative
		_ *bestofboth.Resolver
		_ *bestofboth.DNSClient
		_ bestofboth.ViolationModel
		_ bestofboth.NodeID
		_ bestofboth.Node
		_ bestofboth.Seconds
		_ bestofboth.OriginPolicy
		_ *bestofboth.CDF
		_ *bestofboth.Table
	)

	// Constants and sentinel errors keep their identities.
	if bestofboth.TransitionCrash == bestofboth.TransitionFail ||
		bestofboth.TransitionDrain == bestofboth.TransitionRecover {
		t.Fatal("transition kinds collapsed")
	}
	for _, err := range []error{
		bestofboth.ErrUnknownSite, bestofboth.ErrNotDeployed,
		bestofboth.ErrSiteFailed, bestofboth.ErrSiteNotFailed,
		bestofboth.ErrNoTargets,
	} {
		if err == nil {
			t.Fatal("sentinel error lost")
		}
	}

	// Function names that used to be `var X = internal.X` aliases are now
	// plain functions: call sites compile unchanged.
	if !bestofboth.ServiceAddr(bestofboth.SitePrefix(0)).IsValid() {
		t.Fatal("ServiceAddr/SitePrefix broken")
	}
	var _ func(*bestofboth.Plane, bestofboth.NodeID, netip.Addr) *bestofboth.Prober = bestofboth.NewProber

	// Constructor wrappers survive.
	if bestofboth.NewRegistry() == nil || bestofboth.NewCDF([]float64{1}) == nil {
		t.Fatal("constructors broken")
	}
	if bestofboth.NewAuthoritative("cdn.example.") == nil {
		t.Fatal("NewAuthoritative broken")
	}
	if len(bestofboth.AllTechniques()) != 6 {
		t.Fatal("AllTechniques changed arity")
	}
	if bestofboth.Pct(0.25) == "" {
		t.Fatal("Pct broken")
	}
}
