package bgp

import "net/netip"

// AdjOut returns the adj-RIB-out routes for p, one per session (nil for
// sessions with nothing advertised), as AdjIn returns the adj-RIB-in: the
// slice is the caller's own, the routes are published. Tests outside the
// package read both sides of a session through the pair.
func (s *Speaker) AdjOut(p netip.Prefix) []*Route {
	st := s.lookup(p)
	if st == nil {
		return nil
	}
	out := make([]*Route, len(st.adj))
	for sess := range out {
		out[sess] = s.out(st, sess)
	}
	return out
}
