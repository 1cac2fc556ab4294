package ctlplane

import (
	"net/http"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/pkg/bestofboth/api"
)

// TestSabotagedExecutionFailsReceipt is the verify-by-rediff satellite: an
// execution whose effect diverges from the dry-run prediction (injected
// via the sabotage hook — here a silent data-plane failure of a healthy
// site the controller is never told about) must yield a fail receipt that
// names the exact diverging fields.
func TestSabotagedExecutionFailsReceipt(t *testing.T) {
	var sabotagedSite string
	s, err := NewServer(Config{
		World:     testConfig(41, true),
		Technique: core.LoadShed{},
		Now:       fixedClock,
		Sabotage: func(w *experiment.World) {
			// Silently stop the first healthy non-target site's forwarding:
			// routing and DNS stay put, so only catchment-derived fields
			// (availability, per-site load) diverge.
			sabotagedSite = downFirstHealthy(w)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	site := StateOf(s.World()).Sites[1].Code
	muts := []api.Mutation{{Kind: "drain", Site: site, DrainFor: 30}}

	// Un-sabotaged execute on a twin server passes — the control.
	twin, err := NewServer(Config{World: testConfig(41, true), Technique: core.LoadShed{}, Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	csOK, recOK := postChangeSet(t, twin, "/v1/changesets?execute=true", muts)
	if recOK.Code != http.StatusOK || !csOK.Receipt.Pass {
		t.Fatalf("control execute should pass: %d %+v", recOK.Code, csOK.Receipt)
	}

	cs, rec := postChangeSet(t, s, "/v1/changesets?execute=true&sabotage=true", muts)
	if rec.Code != http.StatusOK {
		t.Fatalf("sabotaged execute: %d %s", rec.Code, rec.Body.String())
	}
	if cs.Status != api.StatusDiverged {
		t.Fatalf("status %q, want %q", cs.Status, api.StatusDiverged)
	}
	if cs.Receipt == nil || cs.Receipt.Pass {
		t.Fatalf("sabotaged execution produced a pass receipt: %+v", cs.Receipt)
	}
	if len(cs.Receipt.Diffs) == 0 {
		t.Fatal("fail receipt names no diverging fields")
	}
	if sabotagedSite == "" {
		t.Fatal("sabotage hook never ran")
	}

	// The diffs must name the fields the sabotage actually moved: the
	// sabotaged site's load row and the availability rollup — and every
	// named field must genuinely differ between prediction and actual.
	fields := map[string]bool{}
	for _, d := range cs.Receipt.Diffs {
		if d.Predicted == d.Actual {
			t.Fatalf("diff %q reports equal values %q", d.Field, d.Predicted)
		}
		fields[d.Field] = true
	}
	wantPrefixes := []string{
		"sites[" + sabotagedSite + "].load.offeredMicroRPS",
		"availability.reachable",
	}
	for _, want := range wantPrefixes {
		if !fields[want] {
			t.Fatalf("fail receipt missing field %q; got %v", want, keys(fields))
		}
	}
	// Routing was untouched by the sabotage: control-plane digests must
	// NOT appear among the diffs (the receipt is precise, not noisy).
	for f := range fields {
		if f == "digests.routeStateSHA256" || f == "digests.dnsZoneSHA256" {
			t.Fatalf("receipt names un-diverged field %q", f)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
