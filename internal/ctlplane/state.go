// Package ctlplane implements the simulator's long-running control plane:
// an HTTP/JSON server that owns one live deployed world and exposes the
// versioned public API (pkg/bestofboth/api) to query its state and to
// mutate it exclusively through verified ChangeSets.
//
// A ChangeSet is an ordered list of intended mutations in the scenario
// event vocabulary. It is dry-run by default: the mutations are applied to
// a copy-on-write restore of the live world's snapshot and converged
// there, and the response carries the predicted post-state and deltas
// while the live world is untouched. Executing (?execute=true) applies the
// same mutations to the live world, re-derives the actual post-state, and
// attaches a verification receipt diffing predicted against actual field
// by field. Because the simulator is deterministic and the dry-run world
// is bit-identical to the live one, the receipt passes unless the
// execution path diverged from the prediction path — which is exactly the
// condition an operator must not trust.
package ctlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"

	"bestofboth/internal/dns"
	"bestofboth/internal/experiment"
	"bestofboth/pkg/bestofboth/api"
)

// StateOf derives the deterministic observable state of a deployed world:
// per-site lifecycle/announcement/load state, availability, and the
// routing/forwarding/DNS digests. Two bit-identical worlds yield equal
// WorldStates — the property ChangeSet verification rests on.
func StateOf(w *experiment.World) api.WorldState {
	return api.WorldState{
		VirtualTime:  w.Sim.Now(),
		Technique:    w.CDN.Technique().Name(),
		Sites:        sitesOf(w),
		Availability: availabilityOf(w),
		Digests:      digestsOf(w),
	}
}

// digestsOf fingerprints the world's routing, forwarding and DNS state.
// The route and FIB encoders stream their canonical text straight into the
// hasher; the text itself (megabytes at default scale) is never built.
func digestsOf(w *experiment.World) api.Digests {
	route, fib := sha256.New(), sha256.New()
	// A hash.Hash never fails a write, so neither encoder can.
	w.Net.WriteRouteState(route)
	w.Plane.WriteFIB(fib)
	return api.Digests{
		RouteStateSHA256: hex.EncodeToString(route.Sum(nil)),
		FIBSHA256:        hex.EncodeToString(fib.Sum(nil)),
		DNSZoneSHA256:    zoneHash(w.CDN.Authoritative()),
	}
}

// sitesOf reports every site's lifecycle, announcement and load state.
func sitesOf(w *experiment.World) []api.SiteState {
	cdn := w.CDN
	acct := cdn.Load()
	acctIndex := map[string]int{}
	if acct != nil {
		for i := 0; i < acct.NumSites(); i++ {
			acctIndex[acct.SiteCode(i)] = i
		}
	}
	var sites []api.SiteState
	for _, s := range cdn.Sites() {
		ss := api.SiteState{
			Code:          s.Code,
			Node:          w.Topo.Node(s.Node).Name,
			Prefix:        s.Prefix.String(),
			Addr:          s.Addr.String(),
			Failed:        cdn.Failed(s.Code),
			Announcements: cdn.AnnouncementsAt(s.Code),
		}
		if i, ok := acctIndex[s.Code]; ok {
			ss.Load = &api.SiteLoad{
				CapacityMicroRPS: acct.Capacity(i),
				OfferedMicroRPS:  acct.Offered(i),
				ServedMicroRPS:   acct.Served(i),
				ShedMicroRPS:     acct.Shed(i),
			}
		}
		sites = append(sites, ss)
	}
	return sites
}

// availabilityOf measures reachability over the full client-target
// population: a target is reachable iff its demand address currently lands
// at a live site. With a demand model attached, demand-weighted totals
// ride along.
func availabilityOf(w *experiment.World) api.Availability {
	targets := w.Targets()
	av := api.Availability{Targets: len(targets)}
	for _, n := range targets {
		if w.CDN.DemandSiteOf(n.ID) != nil {
			av.Reachable++
		}
	}
	if av.Targets == 0 {
		av.ReachableShare = 1
	} else {
		av.ReachableShare = float64(av.Reachable) / float64(av.Targets)
	}
	if acct := w.CDN.Load(); acct != nil {
		_, srv, shd := acct.Totals()
		av.DemandTotalMicroRPS = w.CDN.Demand().TotalRate()
		av.DemandServedMicroRPS = srv
		av.DemandShedMicroRPS = shd
		av.DemandUnservedMicroRPS = acct.Unserved()
	}
	return av
}

// zoneHash fingerprints the authoritative zone: serial plus every record
// set in DumpZone's canonical order.
func zoneHash(auth *dns.Authoritative) string {
	h := sha256.New()
	fmt.Fprintf(h, "origin %s serial %d\n", auth.Origin(), auth.Serial())
	for _, r := range auth.DumpZone() {
		fmt.Fprintf(h, "%s %s %d", r.Name, r.Type, r.TTL)
		for _, a := range r.Addrs {
			fmt.Fprintf(h, " %s", a)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// zoneDumpOf converts the zone into its wire form.
func zoneDumpOf(auth *dns.Authoritative) api.ZoneDump {
	out := api.ZoneDump{
		APIVersion: api.Version,
		Origin:     auth.Origin(),
		Serial:     auth.Serial(),
	}
	for _, r := range auth.DumpZone() {
		rec := api.DNSRecord{Name: r.Name, Type: r.Type, TTL: r.TTL}
		for _, a := range r.Addrs {
			rec.Addrs = append(rec.Addrs, a.String())
		}
		out.Records = append(out.Records, rec)
	}
	return out
}

// catchmentsOf breaks the client-target population down by the site whose
// catchment currently holds each target's demand address.
func catchmentsOf(w *experiment.World) api.Catchments {
	out := api.Catchments{APIVersion: api.Version, Addr: "demand"}
	m := w.CDN.Demand()
	perSite := map[string]*api.SiteCatchment{}
	for _, s := range w.CDN.Sites() {
		sc := &api.SiteCatchment{Site: s.Code}
		perSite[s.Code] = sc
	}
	for _, n := range w.Targets() {
		var rate int64
		if m != nil {
			rate = m.Rate(n.ID)
		}
		site := w.CDN.DemandSiteOf(n.ID)
		if site == nil {
			out.Unreachable++
			out.UnreachableRPS += rate
			continue
		}
		sc := perSite[site.Code]
		sc.Targets++
		sc.DemandMicroRPS += rate
	}
	for _, s := range w.CDN.Sites() {
		out.Sites = append(out.Sites, *perSite[s.Code])
	}
	return out
}

// diffExempt lists the api.WorldState leaves ("Type.Field") diffStates
// deliberately does not compare, with the reason. Every other leaf is
// compared: diffStates walks the schema itself, so a field added to the
// api is diffed from the moment it exists.
var diffExempt = map[string]string{
	"SiteState.Node":   "immutable wiring, pinned by Code",
	"SiteState.Prefix": "immutable addressing plan, pinned by Code",
	"SiteState.Addr":   "immutable addressing plan, pinned by Code",
}

// diffStates re-diffs a predicted post-state against the actual one,
// producing the per-field divergence list of a verification receipt. Field
// paths address the WorldState JSON schema ("sites[atl].load.shedMicroRPS").
func diffStates(pred, act api.WorldState) []api.FieldDiff {
	var diffs []api.FieldDiff
	diffValue(&diffs, "", reflect.ValueOf(pred), reflect.ValueOf(act))
	return diffs
}

// diffValue walks two values of one schema type in step, appending a diff
// per leaf that renders differently. A struct's fields go by JSON name in
// declaration order with its lists last (the roster follows the summary
// blocks), skipping diffExempt. A nil pointer against a non-nil one is a
// single diff. Lists of different length yield only "<list>.length";
// otherwise elements pair up by position and are addressed by their first
// field, the schema's identifying key ("sites[atl]").
func diffValue(diffs *[]api.FieldDiff, path string, p, a reflect.Value) {
	switch p.Kind() {
	case reflect.Struct:
		t := p.Type()
		if path != "" {
			path += "."
		}
		for _, lists := range []bool{false, true} {
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				if (f.Type.Kind() == reflect.Slice) != lists {
					continue
				}
				if _, skip := diffExempt[t.Name()+"."+f.Name]; skip {
					continue
				}
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				diffValue(diffs, path+name, p.Field(i), a.Field(i))
			}
		}
	case reflect.Pointer:
		if p.IsNil() || a.IsNil() {
			if p.IsNil() != a.IsNil() {
				diffValue(diffs, path, reflect.ValueOf(!p.IsNil()), reflect.ValueOf(!a.IsNil()))
			}
			return
		}
		diffValue(diffs, path, p.Elem(), a.Elem())
	case reflect.Slice:
		if p.Len() != a.Len() {
			diffValue(diffs, path+".length", reflect.ValueOf(p.Len()), reflect.ValueOf(a.Len()))
			return
		}
		for i := 0; i < p.Len(); i++ {
			diffValue(diffs, fmt.Sprintf("%s[%v]", path, p.Index(i).Field(0)), p.Index(i), a.Index(i))
		}
	default:
		ps, as := fmt.Sprintf("%v", p), fmt.Sprintf("%v", a)
		if ps != as {
			*diffs = append(*diffs, api.FieldDiff{Field: path, Predicted: ps, Actual: as})
		}
	}
}

// deltaOf summarizes post − pre: the availability movement and per-site
// load/lifecycle changes a dry run reports as the predicted effect.
func deltaOf(pre, post api.WorldState) api.Delta {
	d := api.Delta{
		ReachableShare: post.Availability.ReachableShare - pre.Availability.ReachableShare,
		ServedMicroRPS: post.Availability.DemandServedMicroRPS - pre.Availability.DemandServedMicroRPS,
		ShedMicroRPS:   post.Availability.DemandShedMicroRPS - pre.Availability.DemandShedMicroRPS,
	}
	if len(pre.Sites) != len(post.Sites) {
		return d
	}
	for i := range pre.Sites {
		p, a := pre.Sites[i], post.Sites[i]
		sd := api.SiteDelta{Site: p.Code}
		switch {
		case !p.Failed && a.Failed:
			sd.Transition = "failed"
		case p.Failed && !a.Failed:
			sd.Transition = "recovered"
		}
		if p.Load != nil && a.Load != nil {
			sd.OfferedMicroRPS = a.Load.OfferedMicroRPS - p.Load.OfferedMicroRPS
			sd.ServedMicroRPS = a.Load.ServedMicroRPS - p.Load.ServedMicroRPS
			sd.ShedMicroRPS = a.Load.ShedMicroRPS - p.Load.ShedMicroRPS
		}
		if sd.Transition != "" || sd.OfferedMicroRPS != 0 || sd.ServedMicroRPS != 0 || sd.ShedMicroRPS != 0 {
			d.Sites = append(d.Sites, sd)
		}
	}
	return d
}
