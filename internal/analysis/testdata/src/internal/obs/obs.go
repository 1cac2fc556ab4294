// Package obs is a skeletal stand-in for the metrics layer: commutative
// counters that maporder must not flag and snapshotfields must exempt.
package obs

type Counter struct{ v int64 }

func (c *Counter) Add(n int64) {}

type Gauge struct{ v int64 }

func (g *Gauge) Set(n int64) {}

type Histogram struct{}

func (h *Histogram) Observe(v float64) {}
