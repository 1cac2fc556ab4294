package core

import (
	"errors"
	"fmt"
	"slices"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// Sentinel errors for site-lifecycle validation. All lifecycle entry points
// wrap these with %w, so callers discriminate with errors.Is instead of
// string matching.
var (
	// ErrUnknownSite reports a site code with no corresponding site.
	ErrUnknownSite = errors.New("unknown site")
	// ErrNotDeployed reports a lifecycle operation before Deploy.
	ErrNotDeployed = errors.New("no technique deployed")
	// ErrSiteFailed reports a failure transition on an already-failed site.
	ErrSiteFailed = errors.New("site already failed")
	// ErrSiteNotFailed reports a recovery of a site that is not failed.
	ErrSiteNotFailed = errors.New("site is not failed")
)

// TransitionKind enumerates the site-lifecycle transitions.
type TransitionKind uint8

const (
	// TransitionCrash takes the site down with no controller reaction.
	TransitionCrash TransitionKind = iota
	// TransitionFail is the paper's §5.2 failure: crash, then the
	// controller reaction after DetectionDelay.
	TransitionFail
	// TransitionDrain is graceful maintenance: withdraw + immediate
	// reaction while the data plane keeps serving.
	TransitionDrain
	// TransitionRecover returns a failed or drained site to service.
	TransitionRecover
)

// String names the transition kind.
func (k TransitionKind) String() string {
	switch k {
	case TransitionCrash:
		return "crash"
	case TransitionFail:
		return "fail"
	case TransitionDrain:
		return "drain"
	case TransitionRecover:
		return "recover"
	default:
		return fmt.Sprintf("TransitionKind(%d)", uint8(k))
	}
}

// SiteTransition records one applied lifecycle transition: which site, what
// kind, and the virtual time it took effect.
type SiteTransition struct {
	Site string
	Node topology.NodeID
	Kind TransitionKind
	At   netsim.Seconds
}

// Transition is the validated entry point shared by every site-lifecycle
// operation. It checks the site exists, a technique is deployed, and the
// site's failure state admits the transition, then applies the kind's
// effect and returns the typed transition record. CrashSite, FailSite,
// DrainSite, and RecoverSite are thin wrappers over it.
func (c *CDN) Transition(code string, kind TransitionKind) (SiteTransition, error) {
	s := c.byCode[code]
	if s == nil {
		return SiteTransition{}, fmt.Errorf("core: %w %q", ErrUnknownSite, code)
	}
	if c.technique == nil {
		return SiteTransition{}, fmt.Errorf("core: site %q: %w", code, ErrNotDeployed)
	}
	switch kind {
	case TransitionCrash, TransitionFail, TransitionDrain:
		if c.failed[code] {
			return SiteTransition{}, fmt.Errorf("core: %w: %q", ErrSiteFailed, code)
		}
	case TransitionRecover:
		if !c.failed[code] {
			return SiteTransition{}, fmt.Errorf("core: %w: %q", ErrSiteNotFailed, code)
		}
	default:
		return SiteTransition{}, fmt.Errorf("core: invalid transition kind %d", uint8(kind))
	}
	tr := SiteTransition{Site: code, Node: s.Node, Kind: kind, At: c.sim.Now()}

	var err error
	switch kind {
	case TransitionCrash:
		c.markFailed(s)
		c.plane.SetDown(s.Node, true)
	case TransitionFail:
		c.markFailed(s)
		c.plane.SetDown(s.Node, true)
		c.sim.After(DetectionDelay, func() {
			c.ReactToFailure(code)
		})
	case TransitionDrain:
		// Graceful: withdraw and react now, but keep forwarding — the
		// caller stops the data plane when draining is complete.
		c.markFailed(s)
		err = c.ReactToFailure(code)
	case TransitionRecover:
		err = c.recoverSite(s)
	}
	if err != nil {
		return SiteTransition{}, err
	}
	c.m.transitions.Inc()
	c.m.byKind[kind].Inc()
	// Re-fold load at the transition instant so no site — in particular a
	// drained-then-recovered one — retains offered/shed counters from a
	// catchment it no longer has (no-op without attached load state).
	c.RefreshLoad()
	return tr, nil
}

// markFailed opens a failure episode: the site is recorded failed, any
// previous reaction is forgotten, and its announcements are withdrawn.
// Shared by the crash/fail/drain transitions and the health monitor's
// crash detection.
func (c *CDN) markFailed(s *Site) {
	c.failed[s.Code] = true
	c.episode[s.Code]++
	delete(c.reacted, s.Code)
	c.withdrawAll(s.Node)
}

// CrashSite takes a site down at the current virtual time without any
// controller reaction: the site stops forwarding and its announcements are
// withdrawn (its BGP sessions are gone), but nothing else happens until
// the health-monitoring path notices — use FailSite for the paper's
// fail-and-react sequence, or StartMonitor to detect crashes from probing.
func (c *CDN) CrashSite(code string) (SiteTransition, error) {
	return c.Transition(code, TransitionCrash)
}

// FailSite emulates a site failure at the current virtual time: the site
// withdraws all its announcements and stops forwarding (§5.2). After
// DetectionDelay the controller fires the technique's reactive behavior and
// repoints DNS names at a healthy site.
func (c *CDN) FailSite(code string) (SiteTransition, error) {
	return c.Transition(code, TransitionFail)
}

// DrainSite takes a site out of service gracefully (maintenance): the
// controller withdraws the site's announcements and repoints DNS
// immediately — no detection delay, the operator initiated it — but the
// site keeps forwarding, so traffic still in flight or still arriving on
// stale routes is served while BGP converges away. The caller decides when
// draining is complete and stops the data plane (Plane().SetDown), which
// the scenario engine's maintenance-drain event does after its grace
// period. RecoverSite returns the site to service.
func (c *CDN) DrainSite(code string) (SiteTransition, error) {
	return c.Transition(code, TransitionDrain)
}

// RecoverSite restores a failed site: it resumes forwarding, reinstalls the
// technique's plan at the site, and restores the DNS records the failure
// reaction repointed — the site's own name and the main service name.
//
// The announcements follow from the plan alone. First, in site order, every
// other site's announcement of the site's prefix that the plan does not
// contain (a reaction) is withdrawn; then the plan's entries at the site
// are announced, its own prefix first and the rest in plan order. The order
// is part of the contract: it decides when BGP hears each change, and so
// the message count and convergence time of the recovery.
func (c *CDN) RecoverSite(code string) (SiteTransition, error) {
	return c.Transition(code, TransitionRecover)
}

// recoverSite applies the recovery effect; validation happened in
// Transition.
func (c *CDN) recoverSite(s *Site) error {
	delete(c.failed, s.Code)
	c.episode[s.Code]++
	c.plane.SetDown(s.Node, false)
	plan := c.technique.Plan(c)
	planned := func(o *Site) bool {
		return slices.ContainsFunc(plan, func(a Announcement) bool { return a.Site == o && a.Prefix == s.Prefix })
	}
	for _, o := range c.sites {
		if o != s && c.announcedAt(o.Node, s.Prefix) && !planned(o) {
			c.withdraw(o.Node, s.Prefix)
		}
	}
	var own, rest []Announcement
	for _, a := range plan {
		switch {
		case a.Site != s:
		case a.Prefix == s.Prefix:
			own = append(own, a)
		default:
			rest = append(rest, a)
		}
	}
	if err := c.announcePlan(append(own, rest...)); err != nil {
		return err
	}
	if err := c.auth.SetA(s.Code, c.DNSTTL, c.technique.SteerAddr(c, s)); err != nil {
		return err
	}
	// Point the main name back at the first healthy site; with every site
	// recovered this is the deployment-time default again.
	best := c.HealthySites()[0]
	return c.auth.SetA("www", c.DNSTTL, c.technique.SteerAddr(c, best))
}

// ReactToFailure runs the controller's response to a detected site
// failure: the technique's reaction (when it is a Reactor) plus DNS
// repointing. It is idempotent per failure episode.
func (c *CDN) ReactToFailure(code string) error {
	s := c.byCode[code]
	if s == nil {
		return fmt.Errorf("core: %w %q", ErrUnknownSite, code)
	}
	if !c.failed[code] {
		return fmt.Errorf("core: %w: %q", ErrSiteNotFailed, code)
	}
	if c.reacted[code] {
		return nil
	}
	c.reacted[code] = true
	c.m.reactions.Inc()
	if r, ok := c.technique.(Reactor); ok {
		if err := c.announcePlan(r.React(c, s)); err != nil {
			return err
		}
	}
	c.RefreshLoad()
	// DNS: repoint the failed site's name and the main name at a healthy
	// site, or remove both names' records if none is left.
	healthy := c.HealthySites()
	if len(healthy) == 0 {
		c.auth.RemoveA(s.Code)
		c.auth.RemoveA("www")
		return nil
	}
	backup := healthy[0]
	if err := c.auth.SetA(s.Code, c.DNSTTL, c.technique.SteerAddr(c, backup)); err != nil {
		return err
	}
	return c.auth.SetA("www", c.DNSTTL, c.technique.SteerAddr(c, backup))
}
