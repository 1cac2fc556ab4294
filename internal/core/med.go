package core

import (
	"net/netip"

	"bestofboth/internal/bgp"
)

// ProactiveMED is the §4 variant the paper sketches but does not evaluate:
// "BGP MED could also be used for neighbors that support it." Every site's
// prefix is announced un-prepended at its own site with MED 0 and from
// backup sites with a high MED, restricted to neighbors that also connect
// to the primary site. Because both announcements reach such a neighbor
// from the same neighbor AS (the CDN's origin AS), the MED comparison
// applies and deterministically prefers the primary — giving unicast-grade
// control — while the backup routes pre-position failover state exactly
// like proactive-prepending, without lengthening the AS path (and hence
// without prepending's convergence penalty, Appendix C.2).
//
// The tradeoff: only neighbors shared with the primary site receive
// backups, so coverage equals the scoped-prepending variant's.
type ProactiveMED struct {
	// BackupMED is the MED on backup announcements (default 100).
	BackupMED int
}

func (t ProactiveMED) med() int {
	if t.BackupMED <= 0 {
		return 100
	}
	return t.BackupMED
}

// Name implements Technique.
func (ProactiveMED) Name() string { return "proactive-med" }

// Plan announces each prefix at its site with MED 0 and at other sites
// with the backup MED, scoped to shared neighbors.
func (t ProactiveMED) Plan(c *CDN) []Announcement {
	return backupPlan(c, bgp.OriginPolicy{MED: t.med()}, true)
}

// SteerAddr returns the site's unicast service address.
func (ProactiveMED) SteerAddr(_ *CDN, s *Site) netip.Addr { return s.Addr }

// Tradeoffs: control like scoped prepending, availability like
// proactive-prepending, low risk.
func (ProactiveMED) Tradeoffs() Tradeoffs { return Tradeoffs{High, High, Low} }

// ExtensionTechniques returns the techniques beyond the paper's evaluated
// set: the MED variant sketched in §4 and the scoped-prepending deployment
// recommendation.
func ExtensionTechniques() []Technique {
	return []Technique{
		ProactiveMED{},
		ProactivePrepending{Prepends: 3, Scoped: true},
	}
}
