package experiment

import (
	"strings"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/stats"
)

func TestStabilityEmpty(t *testing.T) {
	st := Stability(nil)
	if st.Reconnected != 0 || st.NoGapShare != 0 {
		t.Fatalf("empty stability = %+v", st)
	}
}

func TestValidateTargetCriterion(t *testing.T) {
	cfg := tinyConfig(41)
	sel := mustSelect(t, cfg, 20)
	v, err := ValidateTargetCriterion(cfg, sel, core.ReactiveAnycast{}, "atl", quickFailover())
	if err != nil {
		t.Fatal(err)
	}
	if v.Filtered.N() == 0 || v.Unfiltered.N() == 0 {
		t.Fatal("empty validation CDFs")
	}
	// The paper found the two datasets "very similar"; allow a loose
	// factor since the tiny config has few samples.
	fa, fb := v.Filtered.Median(), v.Unfiltered.Median()
	if fa > 5*fb+10 || fb > 5*fa+10 {
		t.Fatalf("criterion changed failover drastically: %.1fs vs %.1fs", fa, fb)
	}
}

func TestRepeatabilityCheck(t *testing.T) {
	cfg := tinyConfig(42)
	a, b, err := RepeatabilityCheck(cfg, core.Anycast{}, "ams", quickFailover(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() == 0 || b.N() == 0 {
		t.Fatal("empty repeatability CDFs")
	}
	// Different target sets, same regime.
	if a.Median() > 5*b.Median()+10 || b.Median() > 5*a.Median()+10 {
		t.Fatalf("non-repeatable: %.1fs vs %.1fs", a.Median(), b.Median())
	}
}

// TestMetricsRobustToProbeLoss injects 2% bidirectional probe loss and
// verifies the reconnection metric stays in the same regime: random loss
// must not masquerade as route failure (§5.3 rate-limit concern).
func TestMetricsRobustToProbeLoss(t *testing.T) {
	cfg := tinyConfig(43)
	sel := mustSelect(t, cfg, 20)
	clean := quickFailover()
	lossy := clean
	lossy.LossRate = 0.02

	a, err := RunFailover(cfg, sel, core.ReactiveAnycast{}, "atl", clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFailover(cfg, sel, core.ReactiveAnycast{}, "atl", lossy)
	if err != nil {
		t.Fatal(err)
	}
	ca := stats.NewCDF(a.ReconnectionSamples(clean.ProbeDuration))
	cb := stats.NewCDF(b.ReconnectionSamples(lossy.ProbeDuration))
	if d := cb.Median() - ca.Median(); d > 10 || d < -10 {
		t.Fatalf("2%% loss shifted reconnection median by %.1fs (%.1f vs %.1f)",
			d, ca.Median(), cb.Median())
	}
}

func TestPrependSweepTradeoff(t *testing.T) {
	cfg := tinyConfig(44)
	sel := mustSelect(t, cfg, 20)
	points, err := (&Runner{}).PrependSweep(cfg, sel, []int{1, 3, 5}, []string{"atl"}, quickFailover())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// All shares must be valid fractions. That control does not fall with
	// depth is a paper claim, held by the root package's TestPaperClaims.
	for i, p := range points {
		if p.MeanControl < 0 || p.MeanControl > 1 {
			t.Fatalf("point %d control %v", i, p.MeanControl)
		}
		if p.Samples == 0 {
			t.Fatalf("point %d has no failover samples", i)
		}
	}
	if _, err := (&Runner{}).PrependSweep(cfg, sel, []int{0}, []string{"atl"}, quickFailover()); err == nil {
		t.Fatal("depth 0 accepted")
	}
	out := RenderSweep(points)
	if !strings.Contains(out, "prepends") {
		t.Fatalf("render: %s", out)
	}
}

// TestMonitorDrivenFailover runs the §5.2 experiment with emergent
// detection: the site crashes silently and the reaction waits for the
// probing-based monitor. Failover must land in the same regime as with
// the fixed detection delay, shifted by the detection latency.
func TestMonitorDrivenFailover(t *testing.T) {
	cfg := tinyConfig(45)
	sel := mustSelect(t, cfg, 20)

	fixed := quickFailover()
	monitored := fixed
	monitored.UseMonitor = true

	a, err := RunFailover(cfg, sel, core.ReactiveAnycast{}, "atl", fixed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFailover(cfg, sel, core.ReactiveAnycast{}, "atl", monitored)
	if err != nil {
		t.Fatal(err)
	}
	if b.DetectedAt <= 0 || b.DetectedAt > 10 {
		t.Fatalf("emergent detection latency %.2fs out of range", b.DetectedAt)
	}
	if a.DetectedAt != 0 {
		t.Fatalf("fixed-delay run reported detection %.2fs", a.DetectedAt)
	}
	ca := stats.NewCDF(a.ReconnectionSamples(fixed.ProbeDuration))
	cb := stats.NewCDF(b.ReconnectionSamples(monitored.ProbeDuration))
	// The monitored run may be slower by roughly the detection latency,
	// never dramatically faster or slower.
	if d := cb.Median() - ca.Median(); d < -5 || d > b.DetectedAt+15 {
		t.Fatalf("monitored reconnection %.1fs vs fixed %.1fs (detect %.1fs)",
			cb.Median(), ca.Median(), b.DetectedAt)
	}
}
