package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/stats"
	"bestofboth/internal/topology"
)

// tinyConfig returns a reduced world that preserves the convergence regimes
// (default BGP timing, full site set) while keeping tests fast.
func tinyConfig(seed int64) WorldConfig {
	return WorldConfig{
		Seed: seed,
		Topology: topology.GenConfig{
			NumStub:       120,
			NumEyeball:    60,
			NumUniversity: 16,
			NumRegional:   24,
		},
		CollectorPeers: 25,
	}
}

// quickFailover probes fewer targets for less time than the paper's
// schedule.
func quickFailover() FailoverConfig {
	return FailoverConfig{ProbeDuration: 300, MaxTargets: 12}
}

func mustSelect(t *testing.T, cfg WorldConfig, maxPerSite int) *Selection {
	t.Helper()
	sel, err := SelectTargets(cfg, maxPerSite)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestSelectTargetsInvariants(t *testing.T) {
	cfg := tinyConfig(1)
	sel := mustSelect(t, cfg, 40)
	if len(sel.Sites) != 8 {
		t.Fatalf("got %d site selections", len(sel.Sites))
	}
	for _, st := range sel.Sites {
		if len(st.Proximate) == 0 {
			t.Fatalf("site %s has no proximate targets", st.Code)
		}
		if len(st.Proximate) > 40 {
			t.Fatalf("site %s exceeds cap: %d", st.Code, len(st.Proximate))
		}
		if len(st.NotAnycast)+len(st.AnycastHere) != len(st.Proximate) {
			t.Fatalf("site %s: partition broken: %d + %d != %d",
				st.Code, len(st.NotAnycast), len(st.AnycastHere), len(st.Proximate))
		}
		for _, id := range st.AnycastHere {
			if sel.AnycastCatchment[id] != st.Code {
				t.Fatalf("site %s: AnycastHere target %d maps to %q", st.Code, id, sel.AnycastCatchment[id])
			}
		}
		for _, id := range st.NotAnycast {
			if sel.AnycastCatchment[id] == st.Code {
				t.Fatalf("site %s: NotAnycast target %d maps home", st.Code, id)
			}
		}
	}
	if sel.ForSite("nope") != nil {
		t.Fatal("ForSite invented a site")
	}
}

func TestSelectTargetsDeterministic(t *testing.T) {
	cfg := tinyConfig(2)
	a := mustSelect(t, cfg, 30)
	b := mustSelect(t, cfg, 30)
	for i := range a.Sites {
		sa, sb := a.Sites[i], b.Sites[i]
		if sa.Code != sb.Code || len(sa.Proximate) != len(sb.Proximate) {
			t.Fatal("selection differs between identical runs")
		}
		for j := range sa.Proximate {
			if sa.Proximate[j] != sb.Proximate[j] {
				t.Fatal("proximate sets differ")
			}
		}
	}
}

func TestProximityFilterHonorsRTT(t *testing.T) {
	cfg := tinyConfig(3)
	sel := mustSelect(t, cfg, 0)
	// Rebuild the unicast world and verify every selected target is within
	// the RTT bound.
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CDN.Deploy(core.Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.Converge(3600)
	for _, st := range sel.Sites[:2] {
		s := w.CDN.Site(st.Code)
		for _, id := range st.Proximate {
			fwd := w.Plane.StaticDelay(s.Node, id)
			res := w.Plane.Forward(id, s.Addr)
			if !res.Delivered {
				t.Fatalf("selected target %d cannot reach %s", id, st.Code)
			}
			if rtt := fwd + res.Delay; rtt > ProximityRTT+1e-9 {
				t.Fatalf("target %d at %s has RTT %.1fms > 50ms", id, st.Code, rtt*1000)
			}
		}
	}
}

func TestRunFailoverReactiveAnycast(t *testing.T) {
	cfg := tinyConfig(4)
	sel := mustSelect(t, cfg, 30)
	r, err := RunFailover(cfg, sel, core.ReactiveAnycast{}, "atl", quickFailover())
	if err != nil {
		t.Fatal(err)
	}
	if r.Controllable == 0 {
		t.Fatal("no controllable targets")
	}
	if len(r.Outcomes) != r.Controllable {
		t.Fatalf("outcomes %d != controllable %d", len(r.Outcomes), r.Controllable)
	}
	reconnected := 0
	for _, o := range r.Outcomes {
		if !o.Reconnected {
			continue
		}
		reconnected++
		if o.Reconnection < 0 {
			t.Fatalf("negative reconnection %v", o.Reconnection)
		}
		if o.FailedOver {
			if o.Failover < o.Reconnection {
				t.Fatalf("failover %v < reconnection %v", o.Failover, o.Reconnection)
			}
			if o.FinalSite == "atl" || o.FinalSite == "" {
				t.Fatalf("final site = %q after atl failed", o.FinalSite)
			}
		}
	}
	if reconnected < r.Controllable*8/10 {
		t.Fatalf("only %d/%d targets reconnected under reactive-anycast", reconnected, r.Controllable)
	}
}

func TestRunFailoverUnknownSite(t *testing.T) {
	cfg := tinyConfig(4)
	sel := mustSelect(t, cfg, 10)
	if _, err := RunFailover(cfg, sel, core.Anycast{}, "zzz", quickFailover()); err == nil {
		t.Fatal("unknown site accepted")
	}
}

// TestRunFailoverRejectsEmptySchedule pins the empty-schedule fix: a probe
// schedule with no duration is a config error, returned in bounded time,
// and so is one past the scenario bound on a timeline's end.
func TestRunFailoverRejectsEmptySchedule(t *testing.T) {
	cfg := tinyConfig(4)
	sel := mustSelect(t, cfg, 10)
	for _, tc := range []struct {
		fc   FailoverConfig
		want string
	}{
		{FailoverConfig{}, "failover config"},
		{FailoverConfig{ProbeDuration: math.NaN()}, "failover config"},
		{FailoverConfig{ProbeDuration: 86401}, "past the 86400 s bound"},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := RunFailover(cfg, sel, core.Anycast{}, "atl", tc.fc)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%+v: accepted", tc.fc)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%+v: error %q does not say %q", tc.fc, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%+v: RunFailover did not return", tc.fc)
		}
	}
}

func TestFigure2Orderings(t *testing.T) {
	cfg := tinyConfig(5)
	sel := mustSelect(t, cfg, 30)
	fc := quickFailover()
	pairs, err := (&Runner{}).Figure2(cfg, sel, []core.Technique{
		core.ProactiveSuperprefix{},
		core.ReactiveAnycast{},
		core.Anycast{},
	}, []string{"atl", "msn"}, fc)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CDFPair{}
	for _, p := range pairs {
		byName[p.Technique] = p
		if p.Failover.N() == 0 {
			t.Fatalf("%s has no samples", p.Technique)
		}
	}
	superM := byName["proactive-superprefix"].Failover.Median()
	reactM := byName["reactive-anycast"].Failover.Median()
	anyM := byName["anycast"].Failover.Median()
	// The paper's headline ordering: superprefix is much slower than
	// anycast; reactive-anycast is close to anycast.
	if superM < 3*anyM {
		t.Fatalf("superprefix failover (%.1fs) not ≫ anycast (%.1fs)", superM, anyM)
	}
	if reactM > 4*anyM+10 {
		t.Fatalf("reactive-anycast failover (%.1fs) not close to anycast (%.1fs)", reactM, anyM)
	}
	// Reconnection ~10s scale for the fast techniques.
	if m := byName["reactive-anycast"].Reconnection.Median(); m > 30 {
		t.Fatalf("reactive-anycast reconnection median %.1fs too slow", m)
	}
}

func TestTable1ShapesAndRender(t *testing.T) {
	cfg := tinyConfig(6)
	sel := mustSelect(t, cfg, 30)
	rows, err := Table1(cfg, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	var sum3, sum5 float64
	for _, r := range rows {
		for _, v := range []float64{r.NotAnycast, r.Prepend3, r.Prepend5} {
			if v < 0 || v > 1 {
				t.Fatalf("site %s has out-of-range fraction %v", r.Site, v)
			}
		}
		sum3 += r.Prepend3
		sum5 += r.Prepend5
	}
	// Deeper prepending can only help control in aggregate (§5.4.2).
	if sum5 < sum3-0.05 {
		t.Fatalf("prepend-5 aggregate control (%.2f) below prepend-3 (%.2f)", sum5, sum3)
	}
	out := RenderTable1(rows)
	for _, code := range topology.DefaultSiteCodes {
		if !strings.Contains(out, code) {
			t.Fatalf("render missing site %s:\n%s", code, out)
		}
	}
	if !strings.Contains(out, "Not routed by anycast") {
		t.Fatalf("render missing row label:\n%s", out)
	}
}

func TestFigure3WithdrawalsSlow(t *testing.T) {
	cfg := tinyConfig(7)
	f3, err := Figure3(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Figure4(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Hypergiant.N() == 0 || f3.Testbed.N() == 0 {
		t.Fatal("figure 3 has empty distributions")
	}
	if f4.AnycastCensus.N() == 0 || f4.Testbed.N() == 0 {
		t.Fatal("figure 4 has empty distributions")
	}
	// Appendix A vs B: withdrawal convergence is much slower than
	// announcement propagation.
	if f3.Testbed.Median() < 2*f4.Testbed.Median() {
		t.Fatalf("withdrawal convergence (%.1fs) not ≫ announcement propagation (%.1fs)",
			f3.Testbed.Median(), f4.Testbed.Median())
	}
	// Result generalization: testbed and hypergiant distributions are in
	// the same regime (within a small factor at the median).
	ratio := f3.Testbed.Median() / f3.Hypergiant.Median()
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("testbed (%.1fs) and hypergiant (%.1fs) withdrawal convergence diverge",
			f3.Testbed.Median(), f3.Hypergiant.Median())
	}
	// Announcements propagate in seconds (paper: <10 s median).
	if f4.Testbed.Median() > 15 {
		t.Fatalf("announcement propagation median %.1fs too slow", f4.Testbed.Median())
	}
}

func TestFigure5PrependDepthTradeoff(t *testing.T) {
	cfg := tinyConfig(8)
	sel := mustSelect(t, cfg, 25)
	pairs, err := (&Runner{}).Figure5(cfg, sel, []string{"atl", "slc"}, quickFailover())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	p3, p5 := pairs[0], pairs[1]
	if p3.Failover.N() == 0 || p5.Failover.N() == 0 {
		t.Fatal("empty distributions")
	}
	// Appendix C.2: more prepending must not make failover faster.
	if p5.Failover.Median() < p3.Failover.Median()-2 {
		t.Fatalf("prepend-5 failover (%.1fs) faster than prepend-3 (%.1fs)",
			p5.Failover.Median(), p3.Failover.Median())
	}
}

func TestUnicastDNSFailoverDistribution(t *testing.T) {
	cfg := tinyConfig(9)
	ucfg := DefaultUnicastDNSConfig()
	ucfg.Clients = 600
	cdf, err := UnicastDNSFailover(cfg, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.N() < 500 {
		t.Fatalf("only %d clients measured", cdf.N())
	}
	med := cdf.Median()
	// Cache expiries are uniform over (0, TTL]: median ≈ TTL/2.
	if med < float64(ucfg.TTL)*0.3 || med > float64(ucfg.TTL)*0.8 {
		t.Fatalf("median %.0fs not near TTL/2 = %d", med, ucfg.TTL/2)
	}
	// TTL violations give a heavy tail beyond the TTL.
	if p99 := cdf.Percentile(99); p99 <= float64(ucfg.TTL) {
		t.Fatalf("p99 %.0fs shows no TTL-violation tail", p99)
	}
}

func TestAppendixC1Consistency(t *testing.T) {
	cfg := tinyConfig(10)
	sel := mustSelect(t, cfg, 40)
	r, err := AppendixC1(cfg, sel, "sea1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Compared == 0 {
		t.Fatal("no comparable targets")
	}
	if r.ToIntended+len(r.Diverged) != r.Compared {
		t.Fatalf("counts inconsistent: %d + %d != %d", r.ToIntended, len(r.Diverged), r.Compared)
	}
	if r.ByRelationship > r.RelationshipComparable {
		t.Fatal("explained > comparable")
	}
	if len(r.Diverged) > 0 && r.RelationshipComparable == 0 {
		t.Fatal("no divergence could be classified")
	}
	out := RenderC1("sea1", r)
	if !strings.Contains(out, "sea1") || !strings.Contains(out, "relationship") {
		t.Fatalf("render broken:\n%s", out)
	}
	if _, err := AppendixC1(cfg, sel, "zzz"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestTable2Assembly(t *testing.T) {
	fig2 := []CDFPair{
		{Technique: "anycast", Reconnection: cdfOf(5), Failover: cdfOf(6)},
		{Technique: "reactive-anycast", Reconnection: cdfOf(5), Failover: cdfOf(7)},
	}
	t1 := []Table1Row{{Site: "ams", Prepend3: 0.6}, {Site: "ath", Prepend3: 0.9}}
	rows := Table2(fig2, t1)
	if len(rows) != 5 {
		t.Fatalf("got %d table-2 rows", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	if byName["anycast"].MedianFail != 6 {
		t.Fatalf("anycast median failover = %v", byName["anycast"].MedianFail)
	}
	if math.Abs(byName["proactive-prepending"].ControlShare-0.75) > 1e-9 {
		t.Fatalf("prepending control share = %v", byName["proactive-prepending"].ControlShare)
	}
	if !math.IsNaN(byName["unicast"].MedianFail) {
		t.Fatal("unmeasured technique should have NaN median")
	}
	out := RenderTable2(rows)
	for _, want := range []string{"unicast", "anycast", "reactive-anycast", "high", "low"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func cdfOf(v float64) *stats.CDF { return stats.NewCDF([]float64{v}) }
