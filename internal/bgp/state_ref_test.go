package bgp

import (
	"fmt"
	"sort"
	"strings"

	"bestofboth/internal/topology"
)

// RefRouteStateDigest is the fmt-based route-state renderer WriteRouteState
// replaced, kept verbatim as the reference the encoder must match byte for
// byte: every sha256 on the control plane's wire, every receipt and every
// digest comparison in the tree was defined by this text.
func RefRouteStateDigest(n *Network) string {
	var b strings.Builder
	for _, sp := range n.speakers {
		var lines []string
		// The reference sorts for itself, as the map-backed table it was
		// written against had to: the rib's own order must agree with it.
		known := sp.KnownPrefixes()
		sort.Slice(known, func(i, j int) bool {
			if c := known[i].Addr().Compare(known[j].Addr()); c != 0 {
				return c < 0
			}
			return known[i].Bits() < known[j].Bits()
		})
		for _, p := range known {
			st := sp.lookup(p)
			var sb strings.Builder
			if st.origin != nil {
				fmt.Fprintf(&sb, "  origin %s\n", refOriginWire(st.origin.pol))
			}
			if st.best != nil {
				fmt.Fprintf(&sb, "  best sess=%d %s\n", st.bestSess, refRouteWire(st.best))
			}
			for sess, a := range st.adj {
				if r := a.in; r != nil {
					fmt.Fprintf(&sb, "  in[%d] lp=%d %s\n", sess, sp.localPref(sess), refRouteWire(r))
				}
			}
			for sess, a := range st.adj {
				if r := a.out; r != nil {
					fmt.Fprintf(&sb, "  out[%d] %s\n", sess, refRouteWire(r))
				}
			}
			if sb.Len() == 0 {
				continue // empty husk left by a full withdraw cycle
			}
			lines = append(lines, fmt.Sprintf("%s %s\n%s", sp.node.Name, p, sb.String()))
		}
		for _, l := range lines {
			b.WriteString(l)
		}
	}
	return b.String()
}

func refRouteWire(r *Route) string {
	return fmt.Sprintf("path=%v med=%d comm=%v", r.Path, r.MED, r.Communities)
}

func refOriginWire(pol *OriginPolicy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prepend=%d med=%d comm=%v", pol.Prepend, pol.MED, pol.Communities)
	if len(pol.PerNeighbor) > 0 {
		ids := make([]topology.NodeID, 0, len(pol.PerNeighbor))
		for id := range pol.PerNeighbor {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			np := pol.PerNeighbor[id]
			fmt.Fprintf(&b, " nbr[%d]={export=%t prepend=%d}", id, np.Export, np.Prepend)
		}
	}
	return b.String()
}
