package bestofboth

import (
	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
)

// CDN is the controller orchestrating announcements, DNS, failure
// detection, and reactive reconfiguration across the sites.
type CDN = core.CDN

// Site is one CDN deployment location.
type Site = core.Site

// Monitor is the probing health-monitoring subsystem.
type Monitor = core.Monitor

// SiteTransition describes one applied lifecycle change (crash, fail,
// drain, or recover) of a site.
type SiteTransition = core.SiteTransition

// TransitionKind enumerates the site lifecycle transitions.
type TransitionKind = core.TransitionKind

// Lifecycle transition kinds.
const (
	TransitionCrash   = core.TransitionCrash
	TransitionFail    = core.TransitionFail
	TransitionDrain   = core.TransitionDrain
	TransitionRecover = core.TransitionRecover
)

// Technique is a client-to-site routing technique (§3, Figure 1).
type Technique = core.Technique

// The paper's techniques (§2-§4).
type (
	Unicast              = core.Unicast
	Anycast              = core.Anycast
	ProactiveSuperprefix = core.ProactiveSuperprefix
	ReactiveAnycast      = core.ReactiveAnycast
	ProactivePrepending  = core.ProactivePrepending
	Combined             = core.Combined
)

// AllTechniques returns the paper's six techniques in presentation order.
func AllTechniques() []Technique { return core.AllTechniques() }

// TechniqueByName resolves a technique from its canonical name — the same
// vocabulary cdnsim's -tech flag and the control plane's switch-technique
// mutation use ("reactive-anycast", "load-shift", "load-shift+<base>", ...).
func TechniqueByName(name string) (Technique, error) { return core.TechniqueByName(name) }

// Sentinel errors; test with errors.Is.
var (
	ErrUnknownSite   = core.ErrUnknownSite
	ErrNotDeployed   = core.ErrNotDeployed
	ErrSiteFailed    = core.ErrSiteFailed
	ErrSiteNotFailed = core.ErrSiteNotFailed
	ErrBadTechnique  = core.ErrBadTechnique
	ErrNoTargets     = experiment.ErrNoTargets
)
