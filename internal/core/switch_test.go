package core

import (
	"errors"
	"testing"
)

// TestTechniqueByName round-trips every listed technique's own name plus
// composed forms, and rejects garbage with ErrBadTechnique.
func TestTechniqueByName(t *testing.T) {
	names := []string{}
	for _, list := range [][]Technique{SevenTechniques(), AllTechniques(), ExtensionTechniques()} {
		for _, tech := range list {
			names = append(names, tech.Name())
		}
	}
	names = append(names, "load-shift+unicast", "load-shift+reactive-anycast", "load-shift+proactive-med")
	for _, name := range names {
		tech, err := TechniqueByName(name)
		if err != nil {
			t.Fatalf("TechniqueByName(%q): %v", name, err)
		}
		if tech.Name() != name {
			t.Fatalf("TechniqueByName(%q) resolved to %q", name, tech.Name())
		}
	}
	if _, err := TechniqueByName("carrier-pigeon"); !errors.Is(err, ErrBadTechnique) {
		t.Fatalf("bogus name: got %v, want ErrBadTechnique", err)
	}
	if _, err := TechniqueByName("load-shift+carrier-pigeon"); !errors.Is(err, ErrBadTechnique) {
		t.Fatalf("bogus composed base: got %v, want ErrBadTechnique", err)
	}
	if techs, err := TechniquesBySpec("seven"); err != nil || len(techs) != 7 {
		t.Fatalf("spec \"seven\": %d techniques, err %v", len(techs), err)
	}
	if techs, err := TechniquesBySpec("anycast, unicast"); err != nil || len(techs) != 2 {
		t.Fatalf("comma spec: %d techniques, err %v", len(techs), err)
	}
}

// TestSwitchTechniqueConvergesToFreshDeployment is the equivalence gate
// for live technique switching: switching a converged world from A to B
// and reconverging must land on exactly the routing state a fresh world
// that deployed B directly converges to — including when a site failure is
// open across the switch, whose reaction must be replayed under B.
func TestSwitchTechniqueConvergesToFreshDeployment(t *testing.T) {
	cases := []struct {
		name     string
		from, to Technique
		fail     string // site failed before the switch ("" = none)
	}{
		{"unicast-to-anycast", Unicast{}, Anycast{}, ""},
		{"anycast-to-reactive", Anycast{}, ReactiveAnycast{}, ""},
		{"reactive-to-prepending-failed", ReactiveAnycast{}, ProactivePrepending{Prepends: 3}, "atl"},
		{"superprefix-to-combined-failed", ProactiveSuperprefix{}, Combined{}, "msn"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// World 1: deploy A, (fail a site,) converge, switch to B.
			w1 := newWorld(t, 7)
			if err := w1.cdn.Deploy(tc.from); err != nil {
				t.Fatal(err)
			}
			w1.converge()
			if tc.fail != "" {
				if _, err := w1.cdn.FailSite(tc.fail); err != nil {
					t.Fatal(err)
				}
				w1.converge()
			}
			if err := w1.cdn.SwitchTechnique(tc.to); err != nil {
				t.Fatal(err)
			}
			w1.converge()
			if got := w1.cdn.Technique().Name(); got != tc.to.Name() {
				t.Fatalf("active technique %q after switch, want %q", got, tc.to.Name())
			}

			// World 2: same seed, deploy B directly (and fail the same site).
			w2 := newWorld(t, 7)
			if err := w2.cdn.Deploy(tc.to); err != nil {
				t.Fatal(err)
			}
			w2.converge()
			if tc.fail != "" {
				if _, err := w2.cdn.FailSite(tc.fail); err != nil {
					t.Fatal(err)
				}
				w2.converge()
			}

			if d1, d2 := w1.net.RouteStateDigest(), w2.net.RouteStateDigest(); d1 != d2 {
				t.Fatal("route state after switch differs from fresh deployment of the target technique")
			}
			if d1, d2 := w1.plane.FIBDigest(), w2.plane.FIBDigest(); d1 != d2 {
				t.Fatal("FIBs after switch differ from fresh deployment of the target technique")
			}
		})
	}
}

// TestSwitchTechniqueValidation covers the error paths: switching before
// Deploy fails with ErrNotDeployed; announcement-policy changes validate
// site, deployment, failure state, and per-site announcement presence.
func TestSwitchTechniqueValidation(t *testing.T) {
	w := newWorld(t, 3)
	if err := w.cdn.SwitchTechnique(Anycast{}); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("switch before deploy: got %v, want ErrNotDeployed", err)
	}
	if err := w.cdn.SetAnnouncePolicy("atl", 2); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("policy before deploy: got %v, want ErrNotDeployed", err)
	}
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if err := w.cdn.SetAnnouncePolicy("nope", 2); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("unknown site: got %v, want ErrUnknownSite", err)
	}
	if err := w.cdn.SetAnnouncePolicy("atl", -1); err == nil {
		t.Fatal("negative prepends accepted")
	}
	if _, err := w.cdn.FailSite("atl"); err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.SetAnnouncePolicy("atl", 2); !errors.Is(err, ErrSiteFailed) {
		t.Fatalf("policy on failed site: got %v, want ErrSiteFailed", err)
	}
	if _, err := w.cdn.RecoverSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if err := w.cdn.SetAnnouncePolicy("atl", 2); err != nil {
		t.Fatalf("valid policy change: %v", err)
	}
	w.converge()

	// Anycast announces no per-site prefixes, so repolicying one is an error.
	w2 := newWorld(t, 3)
	if err := w2.cdn.Deploy(Anycast{}); err != nil {
		t.Fatal(err)
	}
	w2.converge()
	if err := w2.cdn.SetAnnouncePolicy("atl", 2); err == nil {
		t.Fatal("policy change accepted under a technique with no per-site announcement")
	}
}

// TestSetAnnouncePolicyPrependSheds is the behavioral check: prepending a
// site's own prefix must lengthen its advertised paths, and restoring
// prepends=0 must return routing to the original state bit-exactly.
func TestSetAnnouncePolicyPrependRoundTrip(t *testing.T) {
	w := newWorld(t, 11)
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	base := w.net.RouteStateDigest()
	if err := w.cdn.SetAnnouncePolicy("atl", 5); err != nil {
		t.Fatal(err)
	}
	w.converge()
	prepended := w.net.RouteStateDigest()
	if prepended == base {
		t.Fatal("5-prepend policy change did not alter route state")
	}
	if err := w.cdn.SetAnnouncePolicy("atl", 0); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if got := w.net.RouteStateDigest(); got != base {
		t.Fatal("restoring prepends=0 did not return route state to baseline")
	}
}
