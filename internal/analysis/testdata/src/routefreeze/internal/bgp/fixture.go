// Package bgp exercises cdnlint/routefreeze: Route is recognized by
// name within any package path ending in bgp, matching the real
// internal/bgp.
package bgp

type Route struct {
	Prefix    string
	Path      []uint32
	LocalPref int
}

// build edits a route it has just made. No function is exempt: build it
// whole, as buildLiteral does.
func build(pfx string) *Route {
	r := &Route{Prefix: pfx}
	r.LocalPref = 100              // want `write to field LocalPref of bgp\.Route`
	r.Path = append(r.Path, 64500) // want `write to field Path of bgp\.Route` `append on bgp\.Route\.Path`
	return r
}

func buildLiteral(pfx string) *Route {
	return &Route{Prefix: pfx, Path: []uint32{64500}, LocalPref: 100}
}

func tamper(r *Route) {
	r.LocalPref = 200         // want `write to field LocalPref of bgp\.Route`
	r.LocalPref++             // want `write to field LocalPref of bgp\.Route`
	r.Path[0] = 1             // want `element write into bgp\.Route\.Path`
	*r = Route{}              // want `write through \*bgp\.Route`
	copy(r.Path, []uint32{1}) // want `copy on bgp\.Route\.Path`
	_ = append(r.Path, 64501) // want `append on bgp\.Route\.Path`
}

func tamperValue(r Route) {
	r.Path[0] = 9     // want `element write into bgp\.Route\.Path`
	r.LocalPref = 300 // want `write to field LocalPref of bgp\.Route`
}

func reads(r *Route) int {
	if len(r.Path) > 0 {
		return int(r.Path[0]) // reads are always fine
	}
	return r.LocalPref
}

func freshCopy(r *Route) *Route {
	c := *r // copying the value is fine; writing it elsewhere is not
	return &c
}
