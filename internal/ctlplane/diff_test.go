package ctlplane

import (
	"reflect"
	"slices"
	"testing"

	"bestofboth/pkg/bestofboth/api"
)

// leafCount counts the comparable leaf fields of t, descending structs,
// pointers, and slice elements (counted once — diffStates walks sites
// pairwise).
func leafCount(t *testing.T, typ reflect.Type, owner string) int {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice:
		return leafCount(t, typ.Elem(), owner)
	case reflect.Struct:
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, skip := diffExempt[typ.Name()+"."+f.Name]; skip {
				continue
			}
			n += leafCount(t, f.Type, typ.Name()+"."+f.Name)
		}
		return n
	case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64:
		return 1
	default:
		t.Fatalf("unhandled kind %s at %s — extend leafCount and diffStates", typ.Kind(), owner)
		return 0
	}
}

// TestDiffStatesCoversEverySchemaField is the compile-time-adjacent twin of
// the snapshotfields lint for the verification path: when two WorldStates
// differ in every non-exempt leaf, diffStates must report exactly one diff
// per leaf. Adding a field to the api schema without extending diffStates
// (or exempting it here, with a reason) fails this test.
func TestDiffStatesCoversEverySchemaField(t *testing.T) {
	pred, act := divergentPair()

	want := leafCount(t, reflect.TypeOf(api.WorldState{}), "WorldState")
	diffs := diffStates(pred, act)
	if len(diffs) != want {
		seen := map[string]bool{}
		for _, d := range diffs {
			seen[d.Field] = true
		}
		t.Fatalf("diffStates reported %d diffs for fully-divergent states; schema has %d comparable leaves.\n"+
			"Reported: %v\nEither diffStates misses a schema field or leafCount/diffExempt is stale.",
			len(diffs), want, seen)
	}

	// Identical states must produce the empty diff — the pass receipt.
	if extra := diffStates(pred, pred); len(extra) != 0 {
		t.Fatalf("identical states diffed: %v", extra)
	}
}

// divergentPair returns two WorldStates that differ in every leaf.
func divergentPair() (pred, act api.WorldState) {
	pred = api.WorldState{
		VirtualTime: 1,
		Technique:   "anycast",
		Sites: []api.SiteState{{
			Code: "atl", Node: "n1", Prefix: "p1", Addr: "a1",
			Failed: false, Announcements: 1,
			Load: &api.SiteLoad{CapacityMicroRPS: 1, OfferedMicroRPS: 2, ServedMicroRPS: 3, ShedMicroRPS: 4},
		}},
		Availability: api.Availability{
			Targets: 1, Reachable: 1, ReachableShare: 1,
			DemandTotalMicroRPS: 1, DemandServedMicroRPS: 1, DemandShedMicroRPS: 1, DemandUnservedMicroRPS: 1,
		},
		Digests: api.Digests{RouteStateSHA256: "r1", FIBSHA256: "f1", DNSZoneSHA256: "z1"},
	}
	act = api.WorldState{
		VirtualTime: 2,
		Technique:   "unicast",
		Sites: []api.SiteState{{
			Code: "bos", Node: "n2", Prefix: "p2", Addr: "a2",
			Failed: true, Announcements: 2,
			Load: &api.SiteLoad{CapacityMicroRPS: 5, OfferedMicroRPS: 6, ServedMicroRPS: 7, ShedMicroRPS: 8},
		}},
		Availability: api.Availability{
			Targets: 2, Reachable: 0, ReachableShare: 0,
			DemandTotalMicroRPS: 2, DemandServedMicroRPS: 2, DemandShedMicroRPS: 2, DemandUnservedMicroRPS: 2,
		},
		Digests: api.Digests{RouteStateSHA256: "r2", FIBSHA256: "f2", DNSZoneSHA256: "z2"},
	}
	return pred, act
}

// TestDiffStatesGolden pins the receipt format: the ordered field paths and
// rendered values below were produced by the hand-enumerated differ this
// walk replaced, so a receipt reads the same before and after — scalar and
// struct blocks first, sites last, addressed by code.
func TestDiffStatesGolden(t *testing.T) {
	pred, act := divergentPair()
	head := []api.FieldDiff{
		{Field: "virtualTime", Predicted: "1", Actual: "2"},
		{Field: "technique", Predicted: "anycast", Actual: "unicast"},
		{Field: "availability.targets", Predicted: "1", Actual: "2"},
		{Field: "availability.reachable", Predicted: "1", Actual: "0"},
		{Field: "availability.reachableShare", Predicted: "1", Actual: "0"},
		{Field: "availability.demandTotalMicroRPS", Predicted: "1", Actual: "2"},
		{Field: "availability.demandServedMicroRPS", Predicted: "1", Actual: "2"},
		{Field: "availability.demandShedMicroRPS", Predicted: "1", Actual: "2"},
		{Field: "availability.demandUnservedMicroRPS", Predicted: "1", Actual: "2"},
		{Field: "digests.routeStateSHA256", Predicted: "r1", Actual: "r2"},
		{Field: "digests.fibSHA256", Predicted: "f1", Actual: "f2"},
		{Field: "digests.dnsZoneSHA256", Predicted: "z1", Actual: "z2"},
	}
	site := []api.FieldDiff{
		{Field: "sites[atl].code", Predicted: "atl", Actual: "bos"},
		{Field: "sites[atl].failed", Predicted: "false", Actual: "true"},
		{Field: "sites[atl].announcements", Predicted: "1", Actual: "2"},
	}
	load := []api.FieldDiff{
		{Field: "sites[atl].load.capacityMicroRPS", Predicted: "1", Actual: "5"},
		{Field: "sites[atl].load.offeredMicroRPS", Predicted: "2", Actual: "6"},
		{Field: "sites[atl].load.servedMicroRPS", Predicted: "3", Actual: "7"},
		{Field: "sites[atl].load.shedMicroRPS", Predicted: "4", Actual: "8"},
	}
	check := func(name string, want ...[]api.FieldDiff) {
		t.Helper()
		if got := diffStates(pred, act); !reflect.DeepEqual(got, slices.Concat(want...)) {
			t.Errorf("%s: diffStates =\n%v\nwant\n%v", name, got, slices.Concat(want...))
		}
	}
	check("fully divergent", head, site, load)

	// A load row present on one side only is one diff, not four.
	act.Sites[0].Load = nil
	check("nil load", head, site, []api.FieldDiff{{Field: "sites[atl].load", Predicted: "true", Actual: "false"}})

	// Rosters of different length are not compared pairwise.
	act.Sites = nil
	check("site count", head, []api.FieldDiff{{Field: "sites.length", Predicted: "1", Actual: "0"}})
}

// schemaLeaves collects the "Type.Field" name of every leaf under typ.
func schemaLeaves(typ reflect.Type, into map[string]bool) {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			schemaLeaves(ft, into)
		} else {
			into[typ.Name()+"."+f.Name] = true
		}
	}
}

// staleExemptions returns the exempt keys that name no schema leaf.
func staleExemptions(exempt map[string]string) []string {
	leaves := map[string]bool{}
	schemaLeaves(reflect.TypeOf(api.WorldState{}), leaves)
	var stale []string
	for key := range exempt {
		if !leaves[key] {
			stale = append(stale, key)
		}
	}
	return stale
}

// TestDiffExemptNamesOnlySchemaLeaves keeps the exemption list honest: a
// key that names no WorldState leaf (a typo, or a field since renamed)
// exempts nothing and must fail rather than linger.
func TestDiffExemptNamesOnlySchemaLeaves(t *testing.T) {
	if stale := staleExemptions(diffExempt); len(stale) != 0 {
		t.Fatalf("diffExempt names %v, which are not leaves of api.WorldState; fix the path or drop the exemption", stale)
	}
	bogus := map[string]string{"SiteState.Node": "real leaf", "SiteState.Nod": "typo", "WorldState.Sites": "not a leaf"}
	stale := staleExemptions(bogus)
	slices.Sort(stale)
	if want := []string{"SiteState.Nod", "WorldState.Sites"}; !slices.Equal(stale, want) {
		t.Fatalf("staleExemptions = %v, want %v", stale, want)
	}
}
