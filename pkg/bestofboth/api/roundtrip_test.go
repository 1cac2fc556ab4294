package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type, and
// requires deep equality — the property that makes the api package a real
// wire schema rather than a write-only export format. It also requires the
// document to carry the apiVersion stamp and every exported field reachable
// from it to carry an explicit json tag, so the wire format never depends
// on Go identifier spelling.
func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	requireJSONTags(t, reflect.TypeOf(v), map[reflect.Type]bool{})
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"apiVersion": "`+Version+`"`) {
		t.Fatalf("document does not carry apiVersion %q:\n%s", Version, b)
	}
	var back T
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(v, back) {
		b2, _ := json.MarshalIndent(back, "", "  ")
		t.Fatalf("round trip not identity:\nin:  %s\nout: %s", b, b2)
	}
}

// requireJSONTags walks every struct type reachable from typ through
// pointers, slices, arrays and maps.
func requireJSONTags(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		requireJSONTags(t, typ.Elem(), seen)
	case reflect.Struct:
		if seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" {
				t.Errorf("%s.%s has no explicit json tag", typ.Name(), f.Name)
			}
			requireJSONTags(t, f.Type, seen)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	roundTrip(t, Manifest{
		APIVersion:   Version,
		Command:      "fig2",
		Seed:         42,
		ConfigDigest: "deadbeef",
		Workers:      8,
		Metrics: []MetricSample{
			{Name: "bgp_updates_total", Kind: "counter", Value: 12345},
			{Name: "sim_virtual_seconds", Kind: "gauge", Value: 3600.5, Volatile: true},
			{Name: "convergence_seconds", Kind: "histogram", Count: 7, Sum: 123.5,
				// The overflow bucket's +Inf bound is the round-trip hazard
				// the custom HistBucket codec exists for.
				Buckets: []HistBucket{{LE: 1, Count: 2}, {LE: 60, Count: 6}, {LE: math.Inf(1), Count: 7}}},
		},
		Mem:    &MemFootprint{PeakRSSBytes: 1 << 30, TotalAllocBytes: 1 << 33, Mallocs: 1e6},
		Demand: &DemandSummary{Targets: 200, TotalRPS: 9000, CapacityRPS: 11250, Gini: 0.62, TopDecileShare: 0.55, Distribution: "pareto"},
	})
}

func TestReportRoundTrip(t *testing.T) {
	r := NewReport(7)
	// Sections hold arbitrary JSON; round-trip identity holds for values
	// already in encoding/json's canonical Go shape.
	r.Add("figure2", map[string]any{"p50": 2.5, "technique": "reactive-anycast"})
	r.Add("table1", []any{map[string]any{"site": "atl", "moved": true}})
	roundTrip(t, *r)
}

// TestReportBytes pins the -json report encoding: sections come out in key
// order at every nesting level (encoding/json sorts map keys by contract),
// compact and indented, byte for byte what Report emitted when Sections was
// a hand-sorted wrapper type.
func TestReportBytes(t *testing.T) {
	r := NewReport(7)
	r.Add("table1", []any{map[string]any{"site": "atl", "moved": true}})
	r.Add("figure2", map[string]any{"technique": "reactive-anycast", "p50": 2.5, "<html>": "a&b"})
	const compact = `{"apiVersion":"v1","seed":7,"sections":{"figure2":{"\u003chtml\u003e":"a\u0026b","p50":2.5,"technique":"reactive-anycast"},"table1":[{"moved":true,"site":"atl"}]}}`
	const indented = `{
  "apiVersion": "v1",
  "seed": 7,
  "sections": {
    "figure2": {
      "\u003chtml\u003e": "a\u0026b",
      "p50": 2.5,
      "technique": "reactive-anycast"
    },
    "table1": [
      {
        "moved": true,
        "site": "atl"
      }
    ]
  }
}`
	if b, err := json.Marshal(r); err != nil || string(b) != compact {
		t.Errorf("compact report = %s (err %v), want %s", b, err, compact)
	}
	if b, err := json.MarshalIndent(r, "", "  "); err != nil || string(b) != indented {
		t.Errorf("indented report = %s (err %v), want %s", b, err, indented)
	}
	if b, _ := json.Marshal(Report{}); string(b) != `{"apiVersion":"","seed":0,"sections":null}` {
		t.Errorf("zero report = %s", b)
	}
}

func TestChangeSetRoundTrip(t *testing.T) {
	st := WorldState{
		VirtualTime: 1800,
		Technique:   "load-shift",
		Sites: []SiteState{{
			Code: "atl", Node: "cdn-atl", Prefix: "184.164.240.0/24", Addr: "184.164.240.10",
			Announcements: 5,
			Load:          &SiteLoad{CapacityMicroRPS: 100, OfferedMicroRPS: 80, ServedMicroRPS: 80},
		}},
		Availability: Availability{Targets: 200, Reachable: 199, ReachableShare: 0.995,
			DemandTotalMicroRPS: 1000, DemandServedMicroRPS: 990, DemandUnservedMicroRPS: 10},
		Digests: Digests{RouteStateSHA256: "aa", FIBSHA256: "bb", DNSZoneSHA256: "cc"},
	}
	post := st
	post.Availability.Reachable = 180
	roundTrip(t, ChangeSet{
		APIVersion: Version,
		ID:         "cs-000001",
		Status:     StatusExecuted,
		CreatedAt:  "2026-01-02T03:04:05Z",
		ExecutedAt: "2026-01-02T03:04:06Z",
		Mutations:  []Mutation{{Kind: "drain", Site: "atl", DrainFor: 600}},
		Pre:        st,
		Predicted:  post,
		Delta: Delta{ReachableShare: -0.095, Sites: []SiteDelta{
			{Site: "atl", Transition: "failed", OfferedMicroRPS: -80, ServedMicroRPS: -80}}},
		Actual:  &post,
		Receipt: &Receipt{Pass: false, Diffs: []FieldDiff{{Field: "availability.reachable", Predicted: "199", Actual: "180"}}},
	})
}

func TestWorldInfoRoundTrip(t *testing.T) {
	roundTrip(t, WorldInfo{
		APIVersion:    Version,
		Seed:          42,
		ConfigDigest:  "cafe",
		Shards:        4,
		DemandEnabled: true,
		State: WorldState{Technique: "anycast", Availability: Availability{ReachableShare: 1},
			Digests: Digests{RouteStateSHA256: "aa", FIBSHA256: "bb", DNSZoneSHA256: "cc"}},
	})
}

// TestReadDocumentsRoundTrip covers the daemon's read-only documents
// (GET /v1/dns, /v1/load, /v1/catchments).
func TestReadDocumentsRoundTrip(t *testing.T) {
	roundTrip(t, ZoneDump{APIVersion: Version, Origin: "cdn.example", Serial: 3,
		Records: []DNSRecord{{Name: "www.cdn.example", Type: "A", TTL: 20, Addrs: []string{"184.164.240.10"}}}})
	roundTrip(t, LoadReport{APIVersion: Version, Shedding: true,
		Sites:        []SiteState{{Code: "atl", Load: &SiteLoad{CapacityMicroRPS: 100, OfferedMicroRPS: 120, ServedMicroRPS: 100, ShedMicroRPS: 20}}},
		Availability: Availability{Targets: 10, Reachable: 10, ReachableShare: 1}})
	roundTrip(t, Catchments{APIVersion: Version, Addr: "demand",
		Sites: []SiteCatchment{{Site: "atl", Targets: 9, DemandMicroRPS: 900}}, Unreachable: 1, UnreachableRPS: 100})
}
