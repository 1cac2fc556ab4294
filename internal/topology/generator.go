package topology

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
)

// GenConfig parameterizes the synthetic Internet generator.
//
// The defaults produce a graph of roughly 900 ASes shaped like the real
// Internet's hierarchy: a tier-1 clique, regional commercial transits,
// research-and-education networks (RENs) with their own backbone, eyeball
// access networks with dense IXP-style peering, and stub edge ASes. A
// multi-site CDN modeled on the PEERING testbed deployment used in the
// paper (sites in Amsterdam, Athens, Boston, Atlanta, Seattle ×2, Salt Lake
// City, and Madison) attaches with deliberately heterogeneous connectivity:
// some sites sit behind commercial transit, some behind university/REN
// chains, and one (sea1) behind a weakly connected IX-only provider —
// heterogeneity that drives the per-site traffic-control differences in
// Table 1 and the Appendix C.1 divergences.
type GenConfig struct {
	Seed          int64
	NumTier1      int // transit-free clique (default 6)
	NumTransit    int // commercial transit providers (default 60)
	NumRegional   int // regional transit providers, customers of transits (default 40)
	NumREN        int // research-and-education networks (default 8)
	NumUniversity int // campus networks, customers of RENs (default 36)
	NumEyeball    int // access networks (default 150)
	NumStub       int // edge ASes (default 600)
	NumHypergiant int // densely peered content giants (default 3)

	// SiteCodes selects which CDN sites to instantiate; defaults to the
	// paper's eight Table 1 sites.
	SiteCodes []string

	// CDNSharedProviders gives every CDN site sessions to this many common
	// tier-1 providers. PEERING sites have disjoint providers (the default,
	// 0), which is why the paper's evaluation prepends from all sites; real
	// CDNs "often connect to the same tier-1 or large regional providers
	// across many sites" (§4), which is what makes the scoped-prepending
	// and MED variants viable. Set to 2 to model that deployment.
	CDNSharedProviders int
}

// cdnASN is the origin AS of the emulated CDN: 47065, the PEERING testbed
// ASN.
const cdnASN ASN = 47065

// DefaultSiteCodes is the Table 1 site list.
var DefaultSiteCodes = []string{"ams", "ath", "bos", "atl", "sea1", "slc", "sea2", "msn"}

func (c *GenConfig) fillDefaults() {
	if c.NumTier1 == 0 {
		c.NumTier1 = 6
	}
	if c.NumTransit == 0 {
		c.NumTransit = 60
	}
	if c.NumRegional == 0 {
		c.NumRegional = 40
	}
	if c.NumREN == 0 {
		c.NumREN = 8
	}
	if c.NumUniversity == 0 {
		c.NumUniversity = 36
	}
	if c.NumEyeball == 0 {
		c.NumEyeball = 150
	}
	if c.NumStub == 0 {
		c.NumStub = 600
	}
	if c.NumHypergiant == 0 {
		c.NumHypergiant = 3
	}
	if len(c.SiteCodes) == 0 {
		c.SiteCodes = DefaultSiteCodes
	}
}

// Continent groups used when wiring region-local links.
var (
	usMetros = []string{"bos", "nyc", "chi", "atl", "dal", "den", "slc", "sea", "lax", "msn", "mia"}
	euMetros = []string{"ams", "lon", "fra", "par", "mad", "ath", "waw"}
	saMetros = []string{"gru", "bhz"}
)

func continentOf(code string) []string {
	for _, m := range euMetros {
		if m == code {
			return euMetros
		}
	}
	for _, m := range saMetros {
		if m == code {
			return saMetros
		}
	}
	return usMetros
}

// tier1 hub metros: global backbones anchored at major interconnection
// cities.
var tier1Hubs = []string{"nyc", "chi", "lax", "lon", "fra", "dal", "ams", "mia"}

// renSpec describes one research-and-education network.
type renSpec struct {
	name  string
	metro string
	// transitMetros: the REN buys commodity transit from the first transit
	// of each listed metro *in addition* to its tier-1. RENs with
	// commercial transit become customers of regional transits, making
	// routes through them customer routes there — the Appendix C.1
	// mechanism. Only ren-pnw (hosting sea2) and ren-grnet (hosting ath)
	// have such shortcuts, reproducing the paper's standout sites: ren-pnw
	// shadows the whole west coast, which is what defeats steering toward
	// sea1.
	transitMetros []string
}

var renSpecs = []renSpec{
	{"ren-internet2", "chi", nil},                            // national R&E backbone
	{"ren-pnw", "sea", []string{"sea", "lax", "slc", "den"}}, // hosts sea2
	{"ren-utah", "slc", nil},
	{"ren-wisc", "msn", nil},
	{"ren-nox", "bos", nil}, // Northern Crossroads
	{"ren-geant", "fra", nil},
	{"ren-grnet", "ath", []string{"ath", "fra"}}, // hosts the ath site
	{"ren-rnp", "gru", []string{"gru"}},
}

// siteSpec describes how one CDN site attaches to the graph, mirroring the
// heterogeneous hosting arrangements of PEERING sites.
type siteSpec struct {
	code  string
	metro string
	// attachment style
	viaREN      string // site provider is this REN (via a university hop if uni != "")
	uni         bool   // insert a university AS between site and REN
	commercial  int    // number of commercial transit providers at the metro
	weakUpllnk  bool   // provider is a deliberately weakly connected transit
	ixPeers     int    // eyeball peers at the local IX
	peersHyper  bool   // peers with hypergiants
	extraRemote int    // additional remote commercial providers
}

var siteSpecs = []siteSpec{
	{code: "ams", metro: "ams", commercial: 2, ixPeers: 6, peersHyper: true},
	{code: "ath", metro: "ath", viaREN: "ren-grnet", ixPeers: 1},
	{code: "bos", metro: "bos", viaREN: "ren-nox", ixPeers: 1},
	{code: "atl", metro: "atl", commercial: 1, ixPeers: 3},
	{code: "sea1", metro: "sea", weakUpllnk: true, ixPeers: 4},
	{code: "slc", metro: "slc", viaREN: "ren-utah", uni: true, ixPeers: 1},
	{code: "sea2", metro: "sea", viaREN: "ren-pnw", uni: true, ixPeers: 1},
	{code: "msn", metro: "msn", viaREN: "ren-wisc", uni: true, ixPeers: 1},
}

// Generate builds a synthetic Internet-like topology per cfg. The result is
// validated before being returned and is fully reproducible from cfg.Seed.
func Generate(cfg GenConfig) (*Topology, error) {
	cfg.fillDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()

	scatter := func(m Metro) Point {
		return Point{m.Loc.X + r.Float64()*2 - 1, m.Loc.Y + r.Float64()*2 - 1}
	}
	metroByCode := func(code string) Metro {
		m, ok := MetroByCode(code)
		if !ok {
			panic("unknown metro " + code)
		}
		return m
	}
	link := func(a, bID NodeID, rel Rel) {
		if a == bID || b.Linked(a, bID) {
			return
		}
		na, nb := b.t.Node(a), b.t.Node(bID)
		b.Link(a, bID, rel, LinkDelay(na.Loc, nb.Loc))
	}

	nextASN := ASN(100)
	asn := func() ASN { nextASN++; return nextASN }

	// Every random subset below is drawn into smp's buffers and every
	// candidate list is gathered into cands; each is used up before the
	// next draw or gather.
	smp := sampler{r: r}
	var cands []NodeID
	// gather collects, metro by metro, what each of byMetro lists at the
	// given metros.
	gather := func(metros []string, byMetro ...map[string][]NodeID) []NodeID {
		cands = cands[:0]
		for _, mc := range metros {
			for _, m := range byMetro {
				cands = append(cands, m[mc]...)
			}
		}
		return cands
	}

	// nearest returns up to n of the given nodes closest to p, with the
	// candidate pool limited to the 2n nearest to keep some diversity.
	type near struct {
		id NodeID
		d  float64
	}
	var nears []near
	nearest := func(p Point, nodes []NodeID, n int) []NodeID {
		nears = nears[:0]
		for _, id := range nodes {
			nears = append(nears, near{id, p.Dist(b.t.Node(id).Loc)})
		}
		for i := 0; i < len(nears); i++ {
			for j := i + 1; j < len(nears); j++ {
				if nears[j].d < nears[i].d {
					nears[i], nears[j] = nears[j], nears[i]
				}
			}
		}
		out := smp.out[:0]
		for _, i := range smp.permute(min(2*n, len(nears))) {
			out = append(out, nears[i].id)
			if len(out) == n {
				break
			}
		}
		smp.out = out
		return out
	}

	// --- Tier-1 clique ---------------------------------------------------
	var tier1s []NodeID
	for i := 0; i < cfg.NumTier1; i++ {
		hub := metroByCode(tier1Hubs[i%len(tier1Hubs)])
		id := b.AddNode(asn(), fmt.Sprintf("tier1-%d", i), ClassTier1, scatter(hub))
		tier1s = append(tier1s, id)
	}
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			link(tier1s[i], tier1s[j], RelPeer)
		}
	}

	// --- Commercial transits ----------------------------------------------
	// Spread across all metros so every region has local transit. The
	// first transit of each metro is "big" (customer of 3 tier-1s; CDN
	// sites with commercial hosting attach here), the rest buy from 2.
	// Dense multihoming and peering creates the alternative-route inventory
	// that makes BGP path exploration — and hence slow withdrawal
	// convergence — realistic.
	var transits []NodeID
	transitsByMetro := map[string][]NodeID{}
	for i := 0; i < cfg.NumTransit; i++ {
		m := Metros[i%len(Metros)]
		id := b.AddNode(asn(), fmt.Sprintf("transit-%s-%d", m.Code, i), ClassTransit, scatter(m))
		transits = append(transits, id)
		transitsByMetro[m.Code] = append(transitsByMetro[m.Code], id)
		nProv := 2
		if len(transitsByMetro[m.Code]) == 1 {
			nProv = 3 // the metro's big transit
		}
		for _, p := range nearest(b.t.Node(id).Loc, tier1s, nProv) {
			link(id, p, RelProvider)
		}
	}
	// Same-continent transit peering.
	for _, id := range transits {
		cont := continentOf(metroCodeOf(b.t.Node(id).Name))
		for _, p := range smp.pick(gather(cont, transitsByMetro), 7) {
			if p != id {
				link(id, p, RelPeer)
			}
		}
	}

	// --- Regional transits --------------------------------------------------
	// A second transit tier: customers of metro transits, peering among
	// themselves. The extra hierarchy level deepens provider chains
	// (tier-1 → transit → regional → eyeball → stub), which multiplies the
	// stale alternatives available during path exploration and produces
	// realistic, slow withdrawal convergence (Appendix A).
	var regionals []NodeID
	regionalsByMetro := map[string][]NodeID{}
	for i := 0; i < cfg.NumRegional; i++ {
		m := Metros[i%len(Metros)]
		id := b.AddNode(asn(), fmt.Sprintf("regional-%s-%d", m.Code, i), ClassTransit, scatter(m))
		regionals = append(regionals, id)
		regionalsByMetro[m.Code] = append(regionalsByMetro[m.Code], id)
		cont := continentOf(m.Code)
		for _, p := range smp.pick(gather(cont, transitsByMetro), 2+r.Intn(2)) {
			link(id, p, RelProvider)
		}
	}
	for _, id := range regionals {
		cont := continentOf(metroCodeOf(b.t.Node(id).Name))
		for _, p := range smp.pick(gather(cont, regionalsByMetro), 3) {
			if p != id {
				link(id, p, RelPeer)
			}
		}
	}

	// --- RENs --------------------------------------------------------------
	// Every REN buys from one tier-1 (spread across the clique) so its
	// customer cone stays globally reachable while its announcements
	// compete on path length at the tier-1s. RENs with commercialTransit
	// > 0 additionally buy from regional transits, making routes through
	// them customer routes at those transits (the C.1 shortcut).
	renByName := map[string]NodeID{}
	var rens []NodeID
	for i := 0; i < cfg.NumREN && i < len(renSpecs); i++ {
		spec := renSpecs[i]
		m := metroByCode(spec.metro)
		id := b.AddNode(asn(), spec.name, ClassREN, scatter(m))
		renByName[spec.name] = id
		rens = append(rens, id)
		for _, p := range nearest(b.t.Node(id).Loc, tier1s, 1) {
			link(id, p, RelProvider)
		}
		for _, metro := range spec.transitMetros {
			if cands := transitsByMetro[metro]; len(cands) > 0 {
				link(id, cands[0], RelProvider)
			}
		}
		// Settlement-free peering with commercial transits at the home
		// exchange point (gigapops and NRENs peer widely): spreads the
		// REN's routes at peer preference so REN-hosted CDN sites remain
		// steerable beyond the tier-1 path.
		for _, p := range transitsByMetro[spec.metro] {
			link(id, p, RelPeer)
		}
	}
	// R&E backbone: RENs all peer with the internet2-like backbone and
	// GRNET additionally reaches the world through GÉANT.
	if backbone, ok := renByName["ren-internet2"]; ok {
		for _, id := range rens {
			if id != backbone {
				link(id, backbone, RelPeer)
			}
		}
	}
	if geant, ok := renByName["ren-geant"]; ok {
		if grnet, ok2 := renByName["ren-grnet"]; ok2 {
			link(grnet, geant, RelProvider)
		}
	}

	// --- Universities -------------------------------------------------------
	var universities []NodeID
	uniByMetro := map[string][]NodeID{}
	for i := 0; i < cfg.NumUniversity; i++ {
		// Universities cluster at REN metros.
		spec := renSpecs[i%len(renSpecs)]
		m := metroByCode(spec.metro)
		id := b.AddNode(asn(), fmt.Sprintf("uni-%s-%d", spec.metro, i), ClassUniversity, scatter(m))
		universities = append(universities, id)
		uniByMetro[spec.metro] = append(uniByMetro[spec.metro], id)
		link(id, renByName[spec.name], RelProvider)
		// A few universities keep a commercial backup provider.
		if r.Float64() < 0.3 {
			if cands := transitsByMetro[spec.metro]; len(cands) > 0 {
				link(id, cands[r.Intn(len(cands))], RelProvider)
			}
		}
	}

	// --- Hypergiants ---------------------------------------------------------
	var hypergiants []NodeID
	for i := 0; i < cfg.NumHypergiant; i++ {
		hub := metroByCode(tier1Hubs[(i*2)%len(tier1Hubs)])
		id := b.AddNode(asn(), fmt.Sprintf("hypergiant-%d", i), ClassHypergiant, scatter(hub))
		hypergiants = append(hypergiants, id)
		for _, p := range smp.pick(tier1s, 2) {
			link(id, p, RelProvider)
		}
		// Dense peering: with roughly half of all transits.
		for _, p := range smp.pick(transits, len(transits)/2) {
			link(id, p, RelPeer)
		}
	}

	// --- Eyeballs ---------------------------------------------------------
	var eyeballs []NodeID
	eyeballsByMetro := map[string][]NodeID{}
	for i := 0; i < cfg.NumEyeball; i++ {
		m := Metros[i%len(Metros)]
		id := b.AddNode(asn(), fmt.Sprintf("eyeball-%s-%d", m.Code, i), ClassEyeball, scatter(m))
		eyeballs = append(eyeballs, id)
		eyeballsByMetro[m.Code] = append(eyeballsByMetro[m.Code], id)
		// 3-4 providers drawn from regional and metro transits: heavy
		// multihoming gives routers the alternative-route inventory that
		// drives path exploration on withdrawal.
		cont := continentOf(m.Code)
		for _, p := range smp.pick(gather(cont, transitsByMetro, regionalsByMetro), 3+r.Intn(2)) {
			link(id, p, RelProvider)
		}
		// IXP peering with other eyeballs in the same metro.
		for _, p := range smp.pick(eyeballsByMetro[m.Code], 3) {
			if p != id {
				link(id, p, RelPeer)
			}
		}
		// Many eyeballs peer with hypergiants.
		if r.Float64() < 0.5 && len(hypergiants) > 0 {
			link(id, hypergiants[r.Intn(len(hypergiants))], RelPeer)
		}
	}

	// --- Stubs --------------------------------------------------------------
	var stubs []NodeID
	for i := 0; i < cfg.NumStub; i++ {
		m := Metros[i%len(Metros)]
		id := b.AddNode(asn(), fmt.Sprintf("stub-%s-%d", m.Code, i), ClassStub, scatter(m))
		stubs = append(stubs, id)
		// Customer of 2-3 upstreams: local transit or local eyeball.
		ups := 2 + r.Intn(2)
		// Not assigned to cands: the next gather would overwrite transits.
		local := gather([]string{m.Code}, transitsByMetro, regionalsByMetro, eyeballsByMetro)
		if len(local) == 0 {
			local = transits
		}
		for _, p := range smp.pick(local, ups) {
			link(id, p, RelProvider)
		}
	}

	// --- The weak uplink for sea1 -------------------------------------------
	// A small Seattle IX transit: one west-coast tier-1 upstream plus peer
	// sessions at the Seattle IX (local transits and eyeballs). Routes
	// through it are peer or provider routes for everyone of consequence,
	// so prepended alternatives reached as *customer* routes via ren-pnw
	// win at the regional transits — reproducing the paper's sea1 row and
	// the Appendix C.1 divergences.
	weakT1 := tier1s[0]
	if len(tier1s) > 2 {
		weakT1 = tier1s[2] // the lax-hub tier-1: keeps local latency sane
	}
	weakSea := b.AddNode(asn(), "transit-sea-weak", ClassTransit, scatter(metroByCode("sea")))
	link(weakSea, weakT1, RelProvider)
	for _, p := range smp.pick(eyeballsByMetro["sea"], 5) {
		link(weakSea, p, RelPeer)
	}

	// --- CDN sites ------------------------------------------------------------
	for _, code := range cfg.SiteCodes {
		spec, ok := siteSpecByCode(code)
		if !ok {
			return nil, fmt.Errorf("topology: unknown CDN site code %q", code)
		}
		m := metroByCode(spec.metro)
		id := b.AddNode(cdnASN, "cdn-"+code, ClassCDN, scatter(m))
		b.SetSite(id, code)
		if spec.viaREN != "" {
			ren, ok := renByName[spec.viaREN]
			if !ok {
				return nil, fmt.Errorf("topology: site %s references missing REN %s", code, spec.viaREN)
			}
			if spec.uni {
				unis := uniByMetro[spec.metro]
				if len(unis) == 0 {
					return nil, fmt.Errorf("topology: site %s has no university at %s", code, spec.metro)
				}
				link(id, unis[0], RelProvider)
			} else {
				link(id, ren, RelProvider)
			}
		}
		if spec.weakUpllnk {
			link(id, weakSea, RelProvider)
		}
		for j := 0; j < spec.commercial; j++ {
			cands := transitsByMetro[spec.metro]
			if len(cands) > j {
				link(id, cands[j], RelProvider)
			} else if len(transits) > 0 {
				link(id, transits[r.Intn(len(transits))], RelProvider)
			}
		}
		for _, p := range smp.pick(eyeballsByMetro[spec.metro], spec.ixPeers) {
			link(id, p, RelPeer)
		}
		if spec.peersHyper {
			for _, h := range hypergiants {
				link(id, h, RelPeer)
			}
		}
		for j := 0; j < cfg.CDNSharedProviders && j < len(tier1s); j++ {
			link(id, tier1s[j], RelProvider)
		}
	}

	// --- Prefix allocation -------------------------------------------------
	// Eyeballs, stubs, and universities originate a /24 each and host the
	// measurement targets; hypergiants originate a /24 used by the Appendix
	// A/B experiments.
	idx := 0
	alloc := func() netip.Prefix {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{
			20, byte(idx >> 8), byte(idx), 0,
		}), 24)
		idx++
		return p
	}
	for _, set := range [][]NodeID{eyeballs, stubs, universities, hypergiants} {
		for _, id := range set {
			b.SetPrefix(id, alloc())
		}
	}

	return b.Build()
}

func siteSpecByCode(code string) (siteSpec, bool) {
	for _, s := range siteSpecs {
		if s.code == code {
			return s, true
		}
	}
	return siteSpec{}, false
}

// metroCodeOf extracts the metro code from generated names like
// "transit-sea-12".
func metroCodeOf(name string) string {
	start := -1
	for i := 0; i < len(name); i++ {
		if name[i] == '-' {
			start = i + 1
			break
		}
	}
	if start < 0 {
		return ""
	}
	end := start
	for end < len(name) && name[end] != '-' {
		end++
	}
	return name[start:end]
}

// sampler draws the generator's random subsets into buffers it reuses, so a
// result is valid until the next draw. Its permutations consume the random
// source exactly as rand.Perm does, so every topology is the one that fresh
// slices per draw would give.
type sampler struct {
	r    *rand.Rand
	perm []int
	out  []NodeID
}

// permute returns a random permutation of [0, n) with rand.Perm(n)'s
// values and draws.
func (s *sampler) permute(n int) []int {
	m := slices.Grow(s.perm[:0], n)[:n]
	for i := range m {
		j := s.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	s.perm = m
	return m
}

// pick returns up to n distinct random elements of xs: xs itself, with no
// draw, when n covers all of it.
func (s *sampler) pick(xs []NodeID, n int) []NodeID {
	if n >= len(xs) {
		return xs
	}
	out := s.out[:0]
	for _, i := range s.permute(len(xs))[:n] {
		out = append(out, xs[i])
	}
	s.out = out
	return out
}
