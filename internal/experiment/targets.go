package experiment

import (
	"math/rand"
	"sort"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/topology"
)

// ProximityRTT is the paper's site-proximity threshold: only targets within
// 50 ms round-trip of a site are evaluated against it (§5.1).
const ProximityRTT = 0.050

// SiteTargets holds the per-site target sets of §5.1.
type SiteTargets struct {
	Code string
	// Proximate are targets within ProximityRTT of the site (measured with
	// a unicast announcement from the site).
	Proximate []topology.NodeID
	// NotAnycast are the Proximate targets that pure anycast routes to a
	// different site — the set on which traffic control is evaluated,
	// since anycast-routed targets are steerable by construction.
	NotAnycast []topology.NodeID
	// AnycastHere are the Proximate targets anycast routes to this site
	// (the controllable set for the anycast baseline).
	AnycastHere []topology.NodeID
}

// Selection is the full §5.1 target selection.
type Selection struct {
	Sites []SiteTargets
	// AnycastCatchment maps every considered target to its anycast site
	// code ("" if unreachable).
	AnycastCatchment map[topology.NodeID]string
}

// ForSite returns the entry for a site code, or nil.
func (s *Selection) ForSite(code string) *SiteTargets {
	for i := range s.Sites {
		if s.Sites[i].Code == code {
			return &s.Sites[i]
		}
	}
	return nil
}

// SelectTargets reproduces §5.1 against the simulated Internet: it builds
// one throwaway world with unicast announcements to measure per-site RTTs,
// and a second with pure anycast to measure catchments, then filters and
// caps targets per site. Both read only converged routing, so both are
// solved worlds (solvedWorld), not converged ones. maxPerSite caps each
// site's sets (the paper uses 50 K; simulations typically use 50-500),
// spreading selection across targets deterministically from cfg.Seed. Zero
// means no cap.
func SelectTargets(cfg WorldConfig, maxPerSite int) (*Selection, error) {
	// Route-flap damping has no fixed point to solve (bgp.ErrSolveDamping),
	// but a cold converge flaps too little for it to outlast ConvergeTime:
	// a damped world's selection is the undamped one
	// (TestSelectTargetsMatchesReference), so selection solves without it.
	cfg.BGP.Damping = false
	// Pass 1: unicast world for proximity.
	wu, err := solvedWorld(cfg, core.Unicast{})
	if err != nil {
		return nil, err
	}

	type siteInfo struct {
		code string
		rtts map[topology.NodeID]float64
	}
	var infos []siteInfo
	targets := wu.Targets()
	for _, s := range wu.CDN.Sites() {
		pr := dataplane.NewProber(wu.Plane, s.Node, s.Addr)
		// Probe from the site itself: RTT = forward static + reverse
		// BGP-routed path back to the site's unicast prefix.
		rtts := make(map[topology.NodeID]float64, len(targets))
		for _, tgt := range targets {
			if rtt, ok := pr.RTT(tgt.ID); ok {
				rtts[tgt.ID] = rtt
			}
		}
		infos = append(infos, siteInfo{code: s.Code, rtts: rtts})
	}

	// Pass 2: anycast world for catchments.
	wa, err := solvedWorld(cfg, core.Anycast{})
	if err != nil {
		return nil, err
	}

	catch := make(map[topology.NodeID]string, len(targets))
	for _, tgt := range targets {
		if s := wa.CDN.CatchmentOf(tgt.ID, core.AnycastServiceAddr); s != nil {
			catch[tgt.ID] = s.Code
		} else {
			catch[tgt.ID] = ""
		}
	}

	sel := &Selection{AnycastCatchment: catch}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for _, info := range infos {
		st := SiteTargets{Code: info.code}
		var prox []topology.NodeID
		for id, rtt := range info.rtts {
			if rtt <= ProximityRTT {
				prox = append(prox, id)
			}
		}
		// Deterministic order before sampling.
		sort.Slice(prox, func(i, j int) bool { return prox[i] < prox[j] })
		st.Proximate = capTargets(rng, prox, maxPerSite)
		for _, id := range st.Proximate {
			if catch[id] == info.code {
				st.AnycastHere = append(st.AnycastHere, id)
			} else {
				st.NotAnycast = append(st.NotAnycast, id)
			}
		}
		sel.Sites = append(sel.Sites, st)
	}
	return sel, nil
}

// capTargets samples up to max elements without replacement, preserving
// determinism. Since the generator allocates one target per AS, sampling
// uniformly already spreads targets across ASes as §5.1 requires.
func capTargets(rng *rand.Rand, ids []topology.NodeID, max int) []topology.NodeID {
	if max <= 0 || len(ids) <= max {
		return ids
	}
	idx := rng.Perm(len(ids))[:max]
	sort.Ints(idx)
	out := make([]topology.NodeID, 0, max)
	for _, i := range idx {
		out = append(out, ids[i])
	}
	return out
}
