package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bestofboth/internal/core"
)

func TestParseYAMLScenario(t *testing.T) {
	src := `# a correlated regional outage
name: regional-outage
description: "mountain-west region fails together"  # inline comment
damping: false
horizon: 400
events:
  - at: 10
    kind: regional-fail
    site: slc
    radius: 12
  - at: 190
    kind: regional-recover
    site: slc
    radius: 12
`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want := &Scenario{
		Name:        "regional-outage",
		Description: "mountain-west region fails together",
		Horizon:     400,
		Events: []Event{
			{At: 10, Kind: KindRegionalFail, Site: "slc", Radius: 12},
			{At: 190, Kind: KindRegionalRecover, Site: "slc", Radius: 12},
		},
	}
	if !reflect.DeepEqual(sc, want) {
		t.Errorf("parsed scenario = %+v, want %+v", sc, want)
	}
}

func TestParseYAMLAllEventFields(t *testing.T) {
	src := `name: everything
damping: true
events:
  - at: 5
    kind: link-down
    a: tier1-0
    b: tier1-1
  - at: 10
    kind: partial-fail
    site: sea1
    fraction: 0.5
  - at: 15
    kind: flap
    site: sea1
    period: 60
    count: 3
  - at: 20
    kind: drain
    site: atl
    drainFor: 30
`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Damping {
		t.Error("damping not parsed")
	}
	want := []Event{
		{At: 5, Kind: KindLinkDown, A: "tier1-0", B: "tier1-1"},
		{At: 10, Kind: KindPartialFail, Site: "sea1", Fraction: 0.5},
		{At: 15, Kind: KindFlap, Site: "sea1", Period: 60, Count: 3},
		{At: 20, Kind: KindDrain, Site: "atl", DrainFor: 30},
	}
	if !reflect.DeepEqual(sc.Events, want) {
		t.Errorf("events = %+v, want %+v", sc.Events, want)
	}
}

func TestParseJSONScenario(t *testing.T) {
	src := `{
  "name": "one-fail",
  "horizon": 100,
  "events": [{"at": 10, "kind": "fail", "site": "atl"}]
}`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "one-fail" || len(sc.Events) != 1 || sc.Events[0].Kind != KindFail {
		t.Errorf("parsed JSON scenario = %+v", sc)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"tabs", "name: x\nevents:\n\t- at: 1\n"},
		{"unknown scenario field", "name: x\nbogus: 1\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n"},
		{"unknown event field", "name: x\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n    wat: 2\n"},
		{"duplicate key", "name: x\nname: y\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n"},
		{"bad number", "name: x\nhorizon: soon\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n"},
		{"events not a list", "name: x\nevents: 3\n"},
		{"stray indentation", "name: x\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n      dangling: 1\n"},
		{"invalid after parse", "name: x\nevents:\n  - at: 1\n    kind: fail\n"}, // fail needs a site
		{"top level list", "- a\n- b\n"},
		{"bad json", "{\"name\": }"},
		{"fractional count", "name: x\nevents:\n  - at: 1\n    kind: flap\n    site: atl\n    period: 60\n    count: 2.7\n"},
		{"fractional count json", `{"name": "x", "events": [{"at": 1, "kind": "flap", "site": "atl", "period": 60, "count": 2.7}]}`},
		{"quoted boolean", "name: x\ndamping: \"true\"\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n"},
		{"unknown event field json", `{"name": "x", "events": [{"at": 1, "kind": "fail", "site": "atl", "wat": 2}]}`},
		{"trailing json", `{"name": "x", "events": [{"at": 1, "kind": "fail", "site": "atl"}]} {}`},
		{"flap count sizing a slice", "name: x\nevents:\n  - at: 1\n    kind: flap\n    site: atl\n    period: 1\n    count: 4611686018427387904\n"},
		{"flap count json", `{"name": "x", "horizon": 60, "events": [{"kind": "flap", "site": "atl", "period": 0.001, "count": 50000000}]}`},
		{"prepend count sizing a path", "name: x\nevents:\n  - at: 1\n    kind: announce-policy\n    site: atl\n    count: 100000000\n"},
		{"horizon sizing the probe logs", "name: x\nhorizon: 1e300\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.src)); err == nil {
			t.Errorf("%s: Parse accepted bad input", tc.name)
		}
	}
}

func TestParseRoundTripsLibraryJSON(t *testing.T) {
	// Every library scenario survives a JSON round-trip through Parse.
	for _, sc := range Library() {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Errorf("%s: round-trip mismatch:\n got %+v\nwant %+v", sc.Name, back, sc)
		}
	}
}

// FuzzParse feeds arbitrary bytes to Parse, the decoder user -f files reach.
// It must never panic, whatever it accepts must be valid, and an accepted
// scenario must come back unchanged through json.Marshal and Parse. The
// committed corpus (testdata/fuzz/FuzzParse) holds yaml.go's example, a
// switch-technique timeline in each syntax, and two rejections: an oversized
// flap count and trailing data.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid scenario: %v", err)
		}
		asJSON, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(asJSON)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", asJSON, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip through %s:\n got %+v\nwant %+v", asJSON, back, sc)
		}
	})
}

// TestParseEveryEventFieldBothSyntaxes walks Event's JSON tags reflectively,
// so a field added to the vocabulary struct is covered without editing this
// test: each tagged field gets a distinct non-zero value and must survive
// Parse from YAML and from JSON.
func TestParseEveryEventFieldBothSyntaxes(t *testing.T) {
	var ev Event
	var yaml strings.Builder
	yaml.WriteString("name: every-field\nevents:\n")
	rv := reflect.ValueOf(&ev).Elem()
	for i := 0; i < rv.NumField(); i++ {
		tag, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
		f := rv.Field(i)
		switch {
		case tag == "kind":
			f.SetString(KindFlap) // valid with every other field set
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("v%d", i))
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i) + 1)
		default:
			t.Fatalf("Event.%s: unhandled kind %s — extend this test", rv.Type().Field(i).Name, f.Kind())
		}
		lead := "    "
		if i == 0 {
			lead = "  - "
		}
		fmt.Fprintf(&yaml, "%s%s: %v\n", lead, tag, f.Interface())
	}
	want := &Scenario{Name: "every-field", Events: []Event{ev}}
	asJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for syntax, src := range map[string]string{"yaml": yaml.String(), "json": string(asJSON)} {
		got, err := Parse([]byte(src))
		if err != nil {
			t.Errorf("%s: %v\n%s", syntax, err, src)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %+v, want %+v", syntax, got.Events, want.Events)
		}
	}
}

// TestParsedSwitchTechniqueRuns loads a switch-technique timeline from both
// syntaxes and runs it: the event must reach the engine, not just the
// decoder.
func TestParsedSwitchTechniqueRuns(t *testing.T) {
	srcs := map[string]string{
		"yaml": "name: switch\nhorizon: 60\nevents:\n  - at: 10\n    kind: switch-technique\n    technique: anycast\n",
		"json": `{"name": "switch", "horizon": 60, "events": [{"at": 10, "kind": "switch-technique", "technique": "anycast"}]}`,
	}
	for syntax, src := range srcs {
		sc, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", syntax, err)
		}
		env := testEnv(t, 5, core.ReactiveAnycast{})
		res, err := Run(env, sc, []Group{buildGroup(t, env, "sea1", 4)}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", syntax, err)
		}
		if len(res.Events) != 1 || res.Events[0].Kind != KindSwitchTechnique || res.Sent == 0 {
			t.Errorf("%s: result %+v", syntax, res)
		}
		if got := env.CDN.Technique().Name(); got != (core.Anycast{}).Name() {
			t.Errorf("%s: deployed technique after the run is %q, want anycast", syntax, got)
		}
	}
}
