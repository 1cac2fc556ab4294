package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
	"bestofboth/pkg/bestofboth/api"
)

// Digest is a stable hex fingerprint of the configuration's simulation
// identity (see identity): two configs digest equally exactly when they
// build bit-identical worlds.
func (c WorldConfig) Digest() string {
	sum := sha256.Sum256([]byte(c.identity()))
	return hex.EncodeToString(sum[:])
}

// DemandSummary rebuilds the config's demand model — a pure function of
// (Seed, topology) — and condenses it for the manifest.
// It returns nil when demand is disabled or the model cannot be built.
func DemandSummary(cfg WorldConfig) *api.DemandSummary {
	cfg.fillDefaults()
	if !cfg.Demand.Enabled {
		return nil
	}
	topo, err := topology.Cached(cfg.Topology)
	if err != nil {
		return nil
	}
	nodes := topo.NodesOfClass(topology.ClassCDN)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	codes := make([]string, 0, len(nodes))
	for _, n := range nodes {
		codes = append(codes, n.Site)
	}
	model, err := traffic.NewModel(cfg.Demand, cfg.Seed, clientTargets(topo), codes)
	if err != nil {
		return nil
	}
	return demandSummaryOf(model.Summary())
}

// demandSummaryOf converts the internal traffic summary to its wire twin.
func demandSummaryOf(s traffic.Summary) *api.DemandSummary {
	return &api.DemandSummary{
		Targets:        s.Targets,
		TotalRPS:       s.TotalRPS,
		CapacityRPS:    s.CapacityRPS,
		Gini:           s.Gini,
		TopDecileShare: s.TopDecileShare,
		Distribution:   s.Distribution,
	}
}

// ReadMemFootprint samples the current process's memory footprint.
func ReadMemFootprint() *api.MemFootprint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &api.MemFootprint{
		PeakRSSBytes:    peakRSSBytes(),
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
	}
}

// peakRSSBytes reads VmHWM from /proc/self/status; 0 on platforms or
// failures where it is unavailable (the footprint is best-effort).
func peakRSSBytes() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// NewManifest assembles a manifest for one invocation. reg may be nil.
func NewManifest(command string, cfg WorldConfig, workers int, reg *obs.Registry) api.Manifest {
	return api.Manifest{
		APIVersion:   api.Version,
		Command:      command,
		Seed:         cfg.Seed,
		ConfigDigest: cfg.Digest(),
		Workers:      workers,
		Metrics:      reg.Snapshot(),
		Demand:       DemandSummary(cfg),
	}
}

// ManifestPath derives the manifest location from a JSON output path:
// results.json → results.manifest.json.
func ManifestPath(jsonOut string) string {
	const suffix = ".json"
	if len(jsonOut) > len(suffix) && jsonOut[len(jsonOut)-len(suffix):] == suffix {
		return jsonOut[:len(jsonOut)-len(suffix)] + ".manifest.json"
	}
	return jsonOut + ".manifest.json"
}
