package experiment

import (
	"bestofboth/internal/stats"
)

// CDFSummary is the JSON-friendly form of a distribution: headline
// percentiles plus up to 200 curve points for plotting.
type CDFSummary struct {
	N      int          `json:"n"`
	P25    float64      `json:"p25"`
	P50    float64      `json:"p50"`
	P75    float64      `json:"p75"`
	P90    float64      `json:"p90"`
	P99    float64      `json:"p99"`
	Max    float64      `json:"max"`
	Points [][2]float64 `json:"points,omitempty"`
}

// SummarizeCDF extracts a CDFSummary with up to points curve samples.
func SummarizeCDF(c *stats.CDF, points int) CDFSummary {
	return CDFSummary{
		N:      c.N(),
		P25:    c.Percentile(25),
		P50:    c.Median(),
		P75:    c.Percentile(75),
		P90:    c.Percentile(90),
		P99:    c.Percentile(99),
		Max:    c.Max(),
		Points: c.Points(points),
	}
}

// WeightedCDFSummary is the exported form of a demand-weighted
// distribution: the same headline percentiles, weighted by user rps.
type WeightedCDFSummary struct {
	N      int     `json:"n"`
	Weight float64 `json:"weight"` // total demand behind the samples, rps
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
}

// SummarizeWeightedCDF extracts a WeightedCDFSummary; nil in, nil out.
func SummarizeWeightedCDF(c *stats.WeightedCDF) *WeightedCDFSummary {
	if c == nil || c.N() == 0 {
		return nil
	}
	return &WeightedCDFSummary{
		N:      c.N(),
		Weight: c.TotalWeight(),
		P50:    c.Median(),
		P90:    c.Percentile(90),
		P99:    c.Percentile(99),
		Mean:   c.Mean(),
		Max:    c.Max(),
	}
}

// TechniqueSeries is the exported form of one Figure 2/5 curve pair.
type TechniqueSeries struct {
	Technique    string         `json:"technique"`
	Reconnection CDFSummary     `json:"reconnection"`
	Failover     CDFSummary     `json:"failover"`
	Stability    StabilityStats `json:"stability"`
	// UserReconnection/UserFailover are the demand-weighted variants,
	// present when the runs carried a demand model.
	UserReconnection *WeightedCDFSummary `json:"userReconnection,omitempty"`
	UserFailover     *WeightedCDFSummary `json:"userFailover,omitempty"`
}

// ExportPairs converts CDFPairs for JSON output.
func ExportPairs(pairs []CDFPair, points int) []TechniqueSeries {
	out := make([]TechniqueSeries, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, TechniqueSeries{
			Technique:        p.Technique,
			Reconnection:     SummarizeCDF(p.Reconnection, points),
			Failover:         SummarizeCDF(p.Failover, points),
			Stability:        p.Stability,
			UserReconnection: SummarizeWeightedCDF(p.UserReconnection),
			UserFailover:     SummarizeWeightedCDF(p.UserFailover),
		})
	}
	return out
}
