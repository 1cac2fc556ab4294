package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Scenario files are JSON: one object whose keys are exactly the JSON tags
// of Scenario and Event.
//
//	{
//	  "name": "regional-outage",
//	  "description": "correlated failure of the Salt Lake / Seattle region",
//	  "horizon": 400,
//	  "events": [
//	    {"at": 10, "kind": "regional-fail", "site": "slc", "radius": 12},
//	    {"at": 190, "kind": "regional-recover", "site": "slc", "radius": 12}
//	  ]
//	}

// LoadFile reads a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes and validates a scenario from JSON bytes. The decode is
// strict: unknown keys, trailing data and anything but a JSON object are
// rejected.
func Parse(data []byte) (*Scenario, error) {
	if !bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		return nil, errors.New("scenario file: not a JSON object (scenario files are JSON)")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario file: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("scenario file: trailing data after the scenario document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}
