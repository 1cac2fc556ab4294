package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bestofboth/internal/core"
)

func TestParseJSONScenario(t *testing.T) {
	src := `{
  "name": "regional-outage",
  "description": "mountain-west region fails together",
  "horizon": 400,
  "events": [
    {"at": 10, "kind": "regional-fail", "site": "slc", "radius": 12},
    {"at": 190, "kind": "regional-recover", "site": "slc", "radius": 12}
  ]
}`
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

func TestParseRejectsBadInput(t *testing.T) {
	const ok = `"events": [{"at": 1, "kind": "fail", "site": "atl"}]`
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"yaml", "name: x\nevents:\n  - at: 1\n    kind: fail\n    site: atl\n"},
		{"top level list", `[{"name": "x", ` + ok + `}]`},
		{"bad json", `{"name": }`},
		{"unknown scenario field", `{"name": "x", "bogus": 1, ` + ok + `}`},
		{"unknown event field", `{"name": "x", "events": [{"at": 1, "kind": "fail", "site": "atl", "wat": 2}]}`},
		{"bad number", `{"name": "x", "horizon": "soon", ` + ok + `}`},
		{"events not a list", `{"name": "x", "events": 3}`},
		{"invalid after parse", `{"name": "x", "events": [{"at": 1, "kind": "fail"}]}`}, // fail needs a site
		{"fractional count", `{"name": "x", "events": [{"at": 1, "kind": "flap", "site": "atl", "period": 60, "count": 2.7}]}`},
		{"quoted boolean", `{"name": "x", "damping": "true", ` + ok + `}`},
		{"trailing data", `{"name": "x", ` + ok + `} {}`},
		{"flap count sizing a slice", `{"name": "x", "events": [{"at": 1, "kind": "flap", "site": "atl", "period": 1, "count": 4611686018427387904}]}`},
		{"flap count sizing the probe logs", `{"name": "x", "horizon": 60, "events": [{"kind": "flap", "site": "atl", "period": 0.001, "count": 50000000}]}`},
		{"prepend count sizing a path", `{"name": "x", "events": [{"at": 1, "kind": "announce-policy", "site": "atl", "count": 100000000}]}`},
		{"horizon sizing the probe logs", `{"name": "x", "horizon": 1e300, ` + ok + `}`},
	}
	// A set horizon stops probing, so an event past it would never run.
	if _, err := Parse([]byte(`{"name":"past","horizon":60,"events":[{"at":10,"kind":"fail","site":"atl"},{"at":200,"kind":"recover","site":"atl"}]}`)); err == nil ||
		!strings.Contains(err.Error(), "event 1 (recover)") || !strings.Contains(err.Error(), "60 s horizon") {
		t.Errorf("an event past the horizon: error %v, want one naming event 1 (recover) and the 60 s horizon", err)
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		switch {
		case err == nil:
			t.Errorf("%s: Parse accepted bad input", tc.name)
		case tc.name == "yaml" && !strings.Contains(err.Error(), "JSON"):
			t.Errorf("yaml: error %q does not say scenario files are JSON", err)
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
// committed corpus (testdata/fuzz/FuzzParse) holds parse.go's example, a
// switch-technique timeline, and two rejections: an oversized flap count
// and trailing data.
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

// TestParseEveryEventField walks Event's JSON tags reflectively, so a field
// added to the vocabulary struct is covered without editing this test: each
// tagged field gets a distinct non-zero value and must survive a JSON round
// trip through Parse.
func TestParseEveryEventField(t *testing.T) {
	var ev Event
	rv := reflect.ValueOf(&ev).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch {
		case rv.Type().Field(i).Tag.Get("json") == "kind":
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
	}
	want := &Scenario{Name: "every-field", Events: []Event{ev}}
	src, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got.Events, want.Events)
	}
}

// TestParsedSwitchTechniqueRuns loads a switch-technique timeline and runs
// it: the event must reach the engine, not just the decoder.
func TestParsedSwitchTechniqueRuns(t *testing.T) {
	sc, err := Parse([]byte(`{"name": "switch", "horizon": 60, "events": [{"at": 10, "kind": "switch-technique", "technique": "anycast"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, 5, core.ReactiveAnycast{})
	res, err := Run(env, sc, []Group{buildGroup(t, env, "sea1", 4)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != KindSwitchTechnique || res.Sent == 0 {
		t.Errorf("result %+v", res)
	}
	if got := env.CDN.Technique().Name(); got != (core.Anycast{}).Name() {
		t.Errorf("deployed technique after the run is %q, want anycast", got)
	}
}
