package topology

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func small(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder()
	t1 := b.AddNode(1, "t1", ClassTier1, Point{0, 0})
	t2 := b.AddNode(2, "t2", ClassTier1, Point{10, 0})
	c1 := b.AddNode(3, "c1", ClassStub, Point{1, 1})
	b.Link(t1, t2, RelPeer, 0.010)
	b.Link(c1, t1, RelProvider, 0.002)
	b.SetPrefix(c1, netip.MustParsePrefix("20.0.0.0/24"))
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuilderSymmetry(t *testing.T) {
	topo := small(t)
	rel, ok := topo.Adjacent(0, 1)
	if !ok || rel != RelPeer {
		t.Fatalf("t1->t2 = %v, %v", rel, ok)
	}
	rel, ok = topo.Adjacent(2, 0)
	if !ok || rel != RelProvider {
		t.Fatalf("c1->t1 = %v, %v", rel, ok)
	}
	rel, ok = topo.Adjacent(0, 2)
	if !ok || rel != RelCustomer {
		t.Fatalf("t1->c1 = %v, %v", rel, ok)
	}
}

func TestRelInvert(t *testing.T) {
	if RelCustomer.Invert() != RelProvider || RelProvider.Invert() != RelCustomer || RelPeer.Invert() != RelPeer {
		t.Fatal("Invert is wrong")
	}
}

func TestValidateCatchesDisconnected(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1, "a", ClassStub, Point{})
	b.AddNode(2, "b", ClassStub, Point{})
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected graph passed validation")
	}
}

func TestValidateCatchesDuplicateName(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1, "dup", ClassStub, Point{})
	c := b.AddNode(2, "dup", ClassStub, Point{})
	b.Link(a, c, RelPeer, 0.001)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate names passed validation")
	}
}

func TestValidateCatchesSelfLink(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(1, "a", ClassStub, Point{})
	b.Link(a, a, RelPeer, 0.001)
	if _, err := b.Build(); err == nil {
		t.Fatal("self link passed validation")
	}
}

func TestNodeLookups(t *testing.T) {
	topo := small(t)
	if topo.NodeByName("c1") == nil || topo.NodeByName("zzz") != nil {
		t.Fatal("NodeByName broken")
	}
	if got := topo.NodesByASN(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("NodesByASN(1) = %v", got)
	}
	if topo.Node(-1) != nil || topo.Node(99) != nil {
		t.Fatal("out-of-range Node should be nil")
	}
	if got := topo.NodesOfClass(ClassTier1); len(got) != 2 {
		t.Fatalf("NodesOfClass(tier1) = %d nodes", len(got))
	}
}

func TestGenerateDefaults(t *testing.T) {
	topo, err := Generate(GenConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := topo.ComputeStats()
	if st.Nodes < 500 {
		t.Fatalf("suspiciously small topology: %d nodes", st.Nodes)
	}
	// All eight sites exist with distinct node ids but one ASN.
	cdn := topo.NodesOfClass(ClassCDN)
	if len(cdn) != 8 {
		t.Fatalf("got %d CDN sites, want 8", len(cdn))
	}
	sites := map[string]bool{}
	for _, n := range cdn {
		if n.ASN != 47065 {
			t.Fatalf("site %s has ASN %d, want 47065", n.Site, n.ASN)
		}
		sites[n.Site] = true
	}
	for _, code := range DefaultSiteCodes {
		if !sites[code] {
			t.Fatalf("missing site %s", code)
		}
	}
	// Targets exist: eyeballs and stubs have prefixes.
	withPrefix := 0
	for _, n := range topo.Nodes {
		if n.Prefix.IsValid() {
			withPrefix++
		}
	}
	if withPrefix < 700 {
		t.Fatalf("only %d prefix-bearing nodes", withPrefix)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("node counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Nodes {
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.Name != nb.Name || na.ASN != nb.ASN || len(na.Adj) != len(nb.Adj) {
			t.Fatalf("node %d differs between runs", i)
		}
		for j := range na.Adj {
			if na.Adj[j] != nb.Adj[j] {
				t.Fatalf("adjacency %d of node %d differs", j, i)
			}
		}
	}
}

// TestPermuteMatchesRandPerm pins the generator's reused-buffer
// permutation to rand.Perm: the same values, and the same source position
// afterwards (the next draw agrees). Sizes shrink as well as grow, so a
// buffer still holding an earlier, longer permutation is reused.
func TestPermuteMatchesRandPerm(t *testing.T) {
	smp := sampler{r: rand.New(rand.NewSource(5))}
	ref := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 7, 3, 64, 1, 200, 5, 199} {
		got, want := smp.permute(n), ref.Perm(n)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: permute = %v, rand.Perm = %v", n, got, want)
		}
		if a, b := smp.r.Int63(), ref.Int63(); a != b {
			t.Fatalf("n=%d: next draw %d after permute, %d after rand.Perm", n, a, b)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(GenConfig{Seed: 1})
	b, _ := Generate(GenConfig{Seed: 2})
	same := true
	for i := range a.Nodes {
		if i >= len(b.Nodes) || len(a.Nodes[i].Adj) != len(b.Nodes[i].Adj) {
			same = false
			break
		}
	}
	if same {
		// Degree sequences matching exactly across seeds would be a red flag.
		diff := false
		for i := range a.Nodes {
			for j := range a.Nodes[i].Adj {
				if a.Nodes[i].Adj[j].To != b.Nodes[i].Adj[j].To {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGenerateSubsetOfSites(t *testing.T) {
	topo, err := Generate(GenConfig{Seed: 1, SiteCodes: []string{"ams", "sea1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.NodesOfClass(ClassCDN)); got != 2 {
		t.Fatalf("got %d sites, want 2", got)
	}
}

func TestGenerateUnknownSite(t *testing.T) {
	if _, err := Generate(GenConfig{Seed: 1, SiteCodes: []string{"xxx"}}); err == nil {
		t.Fatal("unknown site code accepted")
	}
}

func TestMetroDistancesPlausible(t *testing.T) {
	get := func(code string) Point {
		m, ok := MetroByCode(code)
		if !ok {
			t.Fatalf("missing metro %s", code)
		}
		return m.Loc
	}
	// Transatlantic one-way ≥ 35 ms.
	if d := get("bos").Dist(get("ams")); d < 35 {
		t.Fatalf("bos-ams distance %v too small", d)
	}
	// Same-region metros within 15 ms.
	if d := get("sea").Dist(get("slc")); d > 15 {
		t.Fatalf("sea-slc distance %v too large", d)
	}
	if _, ok := MetroByCode("nowhere"); ok {
		t.Fatal("MetroByCode invented a metro")
	}
}

func TestComputeStats(t *testing.T) {
	topo := small(t)
	st := topo.ComputeStats()
	if st.Nodes != 3 || st.Links != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PeerLinks != 1 || st.CustomerLinks != 1 {
		t.Fatalf("link classes = peers %d customers %d", st.PeerLinks, st.CustomerLinks)
	}
	if st.TargetBearingPrefix != 1 {
		t.Fatalf("prefix count = %d", st.TargetBearingPrefix)
	}
}
