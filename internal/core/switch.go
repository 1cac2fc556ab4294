package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bestofboth/internal/bgp"
)

// ErrBadTechnique reports a technique name that resolves to nothing.
var ErrBadTechnique = fmt.Errorf("unknown technique")

// TechniqueByName resolves a technique name — any technique listed by
// SevenTechniques, AllTechniques or ExtensionTechniques, and the composed
// form "load-shift+<base>" (prefix-granularity shifting layered on any
// base). This is the single name vocabulary shared by the CLI flags,
// scenario events, and control-plane mutations.
func TechniqueByName(name string) (Technique, error) {
	if base, ok := strings.CutPrefix(name, "load-shift+"); ok {
		bt, err := TechniqueByName(base)
		if err != nil {
			return nil, err
		}
		return LoadShift{Base: bt}, nil
	}
	for _, t := range slices.Concat(SevenTechniques(), AllTechniques(), ExtensionTechniques()) {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("core: %w %q", ErrBadTechnique, name)
}

// TechniquesBySpec parses a comma-separated technique spec. "all" is the
// classic six (AllTechniques); "seven" is the paper's five plus the two
// load-management techniques (SevenTechniques).
func TechniquesBySpec(spec string) ([]Technique, error) {
	switch spec {
	case "all":
		return AllTechniques(), nil
	case "seven":
		return SevenTechniques(), nil
	}
	var out []Technique
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		t, err := TechniqueByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no techniques given")
	}
	return out, nil
}

// SwitchTechnique replaces the deployed technique live: every current
// announcement is withdrawn, the new technique's normal-operation
// announcements and DNS records are installed, and the failure semantics
// of currently-failed sites are replayed under the new technique (their
// announcements withdrawn again and the new technique's failure reaction
// fired). Load accounting is re-folded at the end so the accountant never
// reports catchments of the old announcement set.
//
// The caller owns convergence: like Deploy, the switch only enqueues
// routing work. On error the controller may hold a partial announcement
// set — control-plane callers dry-run the switch on a snapshot first and
// restore on failure.
func (c *CDN) SwitchTechnique(t Technique) error {
	if c.technique == nil {
		return fmt.Errorf("core: switch to %s: %w", t.Name(), ErrNotDeployed)
	}
	// Tear down the old technique's world-wide announcement set.
	for _, a := range c.announced {
		c.net.Withdraw(a.node, a.prefix)
	}
	c.announced = c.announced[:0]
	c.reacted = map[string]bool{}
	// The new technique decides the shedding policy afresh (Deploy only
	// sets it when the technique is a Shedder, so clear the old policy).
	if c.load != nil {
		c.load.SetShedding(false)
	}
	c.technique = nil
	if err := c.Deploy(t); err != nil {
		return fmt.Errorf("core: switch: %w", err)
	}
	// Deploy installed normal-operation announcements at every site,
	// including failed ones; replay each open failure episode under the
	// new technique (sorted for determinism).
	var failed []string
	for code := range c.failed {
		failed = append(failed, code)
	}
	sort.Strings(failed)
	for _, code := range failed {
		c.withdrawAll(c.byCode[code].Node)
		if err := c.ReactToFailure(code); err != nil {
			return fmt.Errorf("core: switch: replaying failure of %q: %w", code, err)
		}
	}
	c.RefreshLoad()
	return nil
}

// SetAnnouncePolicy re-originates a site's own unicast prefix with an
// AS-path prepend of the given depth (0 restores the plain announcement) —
// the control plane's announcement-policy mutation, modeling the routine
// traffic-engineering knob operators turn on per-site prefixes. The active
// technique must announce per-site prefixes (anycast-only techniques have
// no per-site origination to repolicy) and the site must be healthy.
func (c *CDN) SetAnnouncePolicy(code string, prepends int) error {
	s := c.byCode[code]
	if s == nil {
		return fmt.Errorf("core: %w %q", ErrUnknownSite, code)
	}
	if c.technique == nil {
		return fmt.Errorf("core: site %q: %w", code, ErrNotDeployed)
	}
	if c.failed[code] {
		return fmt.Errorf("core: %w: %q", ErrSiteFailed, code)
	}
	if prepends < 0 {
		return fmt.Errorf("core: negative prepend count %d", prepends)
	}
	if !c.announcedAt(s.Node, s.Prefix) {
		return fmt.Errorf("core: technique %s does not announce %s's own prefix", c.technique.Name(), code)
	}
	c.withdraw(s.Node, s.Prefix)
	var pol *bgp.OriginPolicy
	if prepends > 0 {
		pol = &bgp.OriginPolicy{Prepend: prepends}
	}
	return c.announce(s.Node, s.Prefix, pol)
}
