package api

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// Manifest records how one experiment invocation ran: enough to reproduce
// it (seed, config digest, command) and enough to sanity-check it (the
// final metric snapshot). It is written next to JSON experiment output as
// <output>.manifest.json.
type Manifest struct {
	// APIVersion is the wire-schema version (Version).
	APIVersion string `json:"apiVersion"`
	// Command is the cdnsim subcommand (or other caller-chosen label).
	Command string `json:"command"`
	// Seed is the simulation seed shared by every run of the invocation.
	Seed int64 `json:"seed"`
	// ConfigDigest fingerprints the world configuration; equal digests +
	// equal seeds ⇒ bit-identical simulations.
	ConfigDigest string `json:"configDigest"`
	// Workers is the concurrency bound the invocation ran under. It never
	// affects results; recorded for performance forensics only.
	Workers int `json:"workers"`
	// Metrics is the registry snapshot at write time (volatile metrics
	// included — the manifest describes this invocation, not the abstract
	// simulation).
	Metrics []MetricSample `json:"metrics,omitempty"`
	// Mem records the process memory footprint at write time; nil unless
	// the caller asked for it (cdnsim fills it when -metrics is set).
	Mem *MemFootprint `json:"mem,omitempty"`
	// Demand summarizes the demand model (aggregate demand and capacity,
	// Gini coefficient, top-decile share) when the configuration enables
	// it; nil otherwise.
	Demand *DemandSummary `json:"demand,omitempty"`
}

// WriteFile writes the manifest as indented JSON, stamping APIVersion.
func (m Manifest) WriteFile(path string) error {
	m.APIVersion = Version
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("api: encoding manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// MetricSample is the point-in-time state of one metric, the wire twin of
// the internal registry's snapshot entry.
type MetricSample struct {
	Name     string       `json:"name"`
	Kind     string       `json:"kind"` // "counter", "gauge", or "histogram"
	Value    float64      `json:"value,omitempty"`
	Count    uint64       `json:"count,omitempty"`
	Sum      float64      `json:"sum,omitempty"`
	Buckets  []HistBucket `json:"buckets,omitempty"`
	Volatile bool         `json:"volatile,omitempty"`
}

// HistBucket is one cumulative histogram bucket.
type HistBucket struct {
	// LE is the inclusive upper bound; +Inf for the overflow bucket.
	LE float64 `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count uint64 `json:"count"`
}

// MarshalJSON renders the bound as a string so the +Inf overflow bucket
// survives encoding (encoding/json rejects infinite float64s).
func (b HistBucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}{LE: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *HistBucket) UnmarshalJSON(data []byte) error {
	var aux struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	if aux.LE == "+Inf" {
		b.LE = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(aux.LE, 64)
		if err != nil {
			return err
		}
		b.LE = v
	}
	b.Count = aux.Count
	return nil
}

// MemFootprint captures the memory cost of one invocation — the numbers
// paper-scale runs need on record to argue the kernel scales.
type MemFootprint struct {
	// PeakRSSBytes is the process's high-water resident set (VmHWM),
	// 0 where the OS does not expose it.
	PeakRSSBytes uint64 `json:"peakRSSBytes"`
	// TotalAllocBytes is the cumulative heap bytes allocated over the
	// process lifetime (runtime.MemStats.TotalAlloc).
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64 `json:"mallocs"`
}

// DemandSummary condenses a demand model: aggregate rates, capacity, and
// the concentration statistics of the heavy-tailed distribution.
type DemandSummary struct {
	Targets        int     `json:"targets"`
	TotalRPS       float64 `json:"totalRPS"`
	CapacityRPS    float64 `json:"capacityRPS"`
	Gini           float64 `json:"gini"`
	TopDecileShare float64 `json:"topDecileShare"`
	Distribution   string  `json:"distribution"`
}

// Report accumulates experiment results for machine-readable -json output:
// one named section per figure or table.
type Report struct {
	// APIVersion is the wire-schema version (Version).
	APIVersion string         `json:"apiVersion"`
	Seed       int64          `json:"seed"`
	Sections   map[string]any `json:"sections"`
}

// NewReport creates an empty report for a seed.
func NewReport(seed int64) *Report {
	return &Report{APIVersion: Version, Seed: seed, Sections: map[string]any{}}
}

// Add stores a section by name (e.g. "figure2", "table1").
func (r *Report) Add(name string, v any) { r.Sections[name] = v }

// WriteFile serializes the report as indented JSON, stamping APIVersion.
func (r *Report) WriteFile(path string) error {
	r.APIVersion = Version
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("api: marshaling report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("api: writing report: %w", err)
	}
	return nil
}
