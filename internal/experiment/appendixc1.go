package experiment

import (
	"fmt"
	"net/netip"
	"strings"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/stats"
	"bestofboth/internal/topology"
	"bestofboth/internal/trace"
)

// Appendix C.1 experiment prefixes: a unicast prefix u announced only at
// the site under study and an anycast prefix a5 announced from every site
// with the others prepending five times (§C.1.1).
var (
	c1UnicastPrefix = netip.MustParsePrefix("184.164.249.0/24")
	c1AnycastPrefix = netip.MustParsePrefix("184.164.250.0/24")
)

// AppendixC1 reproduces the poor-control analysis for a site (the paper
// studies sea1): why do targets route to prepended sites instead?
func AppendixC1(cfg WorldConfig, sel *Selection, siteCode string) (*trace.Result, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	site := w.CDN.Site(siteCode)
	if site == nil {
		return nil, fmt.Errorf("experiment: unknown site %q", siteCode)
	}
	st := sel.ForSite(siteCode)
	if st == nil {
		return nil, fmt.Errorf("experiment: no selection for site %q", siteCode)
	}

	// Announce u from the site under study and a5 from every site, others
	// prepending five times.
	if err := w.Net.Originate(site.Node, c1UnicastPrefix, nil); err != nil {
		return nil, err
	}
	for _, s := range w.CDN.Sites() {
		pol := &bgp.OriginPolicy{}
		if s.Node != site.Node {
			pol.Prepend = 5
		}
		if err := w.Net.Originate(s.Node, c1AnycastPrefix, pol); err != nil {
			return nil, err
		}
	}
	w.Converge(3600)

	return trace.Analyze(w.Plane, w.Topo, st.Proximate,
		core.ServiceAddr(c1UnicastPrefix), core.ServiceAddr(c1AnycastPrefix), site.Node)
}

// RenderC1 formats the §C.1.3 statistics.
func RenderC1(siteCode string, r *trace.Result) string {
	t := &stats.Table{Header: []string{"metric", "value"}}
	t.AddRow("site under study", siteCode)
	t.AddRow("targets with measurable path pairs", fmt.Sprintf("%d", r.Compared))
	t.AddRow("routed to intended site on a5", fmt.Sprintf("%d (%s)", r.ToIntended, fracOf(r.ToIntended, r.Compared)))
	t.AddRow("diverged to another site", fmt.Sprintf("%d", len(r.Diverged)))
	t.AddRow("diverge via R&E next hop", fmt.Sprintf("%d (%s of diverged)", r.ViaRE, fracOf(r.ViaRE, len(r.Diverged))))
	t.AddRow("explained by relationship preference", fmt.Sprintf("%d (%s of comparable)", r.ByRelationship, fracOf(r.ByRelationship, r.RelationshipComparable)))
	return t.Render()
}

func fracOf(n, d int) string {
	if d == 0 {
		return "-"
	}
	return stats.Pct(float64(n) / float64(d))
}

// RenderC1Examples narrates up to n concrete divergences in the style of
// the paper's Level3/NTT/Pacific-Northwest-Gigapop example (§C.1.3).
func RenderC1Examples(topo *topology.Topology, r *trace.Result, n int) string {
	var b strings.Builder
	count := 0
	for _, d := range r.Diverged {
		if d.NextUnicast == d.NextAnycast || count >= n {
			continue
		}
		count++
		div := topo.Node(d.Diverging)
		nu, na := topo.Node(d.NextUnicast), topo.Node(d.NextAnycast)
		fmt.Fprintf(&b, "  target %s: diverging AS is %s; the unicast path continues via its %s %s (%s), the prepended-anycast path via its %s %s (%s)",
			topo.Node(d.Target).Name, div.Name,
			d.RelUnicast, nu.Name, nu.Class,
			d.RelAnycast, na.Name, na.Class)
		if d.ExplainedByRelationship {
			b.WriteString(" — business preference explains the divergence")
		}
		if d.AnycastViaRE {
			b.WriteString(" (R&E shortcut)")
		}
		b.WriteString(".\n")
	}
	if count == 0 {
		return "  (no divergences with distinct next hops to narrate)\n"
	}
	return b.String()
}
