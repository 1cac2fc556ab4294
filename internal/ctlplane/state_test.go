package ctlplane

import (
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/pkg/bestofboth/api"
)

// defaultDemandWorld is what `cdnsim serve -tech load-shift -demand` serves: the
// seed-42 default-scale world with the default demand model, settled.
func defaultDemandWorld(t *testing.T) *experiment.World {
	t.Helper()
	cfg := experiment.DefaultWorldConfig(experiment.WithSeed(42), experiment.WithDefaultDemand())
	w, err := experiment.NewConvergedWorld(cfg, core.LoadShift{}, DefaultConvergeBound)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStateOfGoldenDigests pins the three fingerprints of the default
// demand world to the values the fmt-based renderers produced before the
// streaming encoders replaced them. The digests are the control plane's
// wire contract (receipts and audit trails carry them), so an encoder
// change that moves one byte of canonical text fails here by name.
func TestStateOfGoldenDigests(t *testing.T) {
	want := api.Digests{
		RouteStateSHA256: "b23d022e32e12a432eb15b3c5b1076fb47317b91f95110dcbfc4274b0cab2022",
		FIBSHA256:        "96bf8afd387652ad15ae5268145a66ed1a7585390e95c11b1042b5dd6e06ce1b",
		DNSZoneSHA256:    "5898c2ca66e9c40a75d84e052d34cbd74eadbec85d594efdb1a745268400da42",
	}
	if got := StateOf(defaultDemandWorld(t)).Digests; got != want {
		t.Fatalf("digests moved:\n got %+v\nwant %+v", got, want)
	}
}

// TestStateOfAllocBudget keeps the digest renderers out of the allocator.
// Through fmt, one StateOf of this world made ≈521 K allocations (36.8 MB);
// streaming into the hashers leaves the site roster, the availability walk
// and the encoders' chunk buffers. The budget is 1 % of the old count.
func TestStateOfAllocBudget(t *testing.T) {
	w := defaultDemandWorld(t)
	const budget = 5000
	if got := testing.AllocsPerRun(3, func() { StateOf(w) }); got > budget {
		t.Fatalf("StateOf allocates %.0f objects per call, budget %d", got, budget)
	}
}
