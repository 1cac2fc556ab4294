package core

import "testing"

func TestMonitorDetectsCrash(t *testing.T) {
	w := newWorld(t, 20)
	if err := w.cdn.Deploy(ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()

	var detectedCode string
	var detectedAt float64
	mon, err := w.cdn.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	mon.OnDetect = func(code string, at float64) {
		detectedCode, detectedAt = code, at
	}
	// Let a few healthy probe cycles pass: no detections.
	w.sim.RunFor(5)
	if mon.Detections != 0 {
		t.Fatalf("false positive: %d detections on healthy sites", mon.Detections)
	}

	crashAt := w.sim.Now()
	if _, err := w.cdn.CrashSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(30)

	if mon.Detections != 1 || detectedCode != "atl" {
		t.Fatalf("detections = %d (%q), want 1 (atl)", mon.Detections, detectedCode)
	}
	lag := detectedAt - crashAt
	if lag <= 0 || lag > 5 {
		t.Fatalf("detection lag %.2fs outside (0, 5s] for 0.5s×3 probing", lag)
	}
	// The reaction ran: reactive announcements restored reachability.
	// (Stop the monitor so the event queue can drain; a running monitor
	// reschedules itself forever.)
	mon.Stop()
	w.sim.RunFor(300)
	client := w.someClient(t)
	after := w.cdn.CatchmentOf(client.ID, w.cdn.Site("atl").Addr)
	if after == nil || after.Code == "atl" {
		t.Fatalf("monitor-triggered reaction did not restore reachability: %+v", after)
	}
}

// TestMonitorIgnoresSitesWithoutOwnPrefix runs the monitor over healthy
// worlds whose technique never announces a site's own prefix: the health
// check has nothing to reach, so those sites must not be watched at all,
// let alone declared down.
func TestMonitorIgnoresSitesWithoutOwnPrefix(t *testing.T) {
	for _, tech := range []Technique{Anycast{}, LoadShed{}, LoadShift{}} {
		w := newWorld(t, 24)
		if err := w.cdn.Deploy(tech); err != nil {
			t.Fatal(err)
		}
		w.converge()
		mon, err := w.cdn.StartMonitor()
		if err != nil {
			t.Fatal(err)
		}
		w.sim.RunFor(30)
		mon.Stop()
		if mon.Detections != 0 || len(w.cdn.HealthySites()) != len(w.cdn.Sites()) {
			t.Errorf("%s: %d detections, %d of %d sites healthy on a fault-free run",
				tech.Name(), mon.Detections, len(w.cdn.HealthySites()), len(w.cdn.Sites()))
		}
	}
}

// TestMonitorStop crashes a watched site after Stop: a monitor that kept
// probing would detect it. The technique must announce each site's own
// prefix, or the monitor watches nothing and the test checks nothing.
func TestMonitorStop(t *testing.T) {
	w := newWorld(t, 21)
	if err := w.cdn.Deploy(ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	mon, err := w.cdn.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	w.cdn.CrashSite("ams")
	w.sim.RunFor(20)
	if mon.Detections != 0 {
		t.Fatal("stopped monitor still detected")
	}
}

func TestMonitorRequiresDeploy(t *testing.T) {
	w := newWorld(t, 22)
	if _, err := w.cdn.StartMonitor(); err == nil {
		t.Fatal("monitor started without technique")
	}
	w.cdn.Deploy(Anycast{})
	if _, err := w.cdn.StartMonitor(); err != nil {
		t.Fatalf("monitor refused a deployed technique: %v", err)
	}
}

func TestReactToFailureIdempotentAndGuarded(t *testing.T) {
	w := newWorld(t, 23)
	w.cdn.Deploy(ReactiveAnycast{})
	w.converge()
	if err := w.cdn.ReactToFailure("ams"); err == nil {
		t.Fatal("reaction on healthy site accepted")
	}
	if err := w.cdn.ReactToFailure("zzz"); err == nil {
		t.Fatal("reaction on unknown site accepted")
	}
	w.cdn.CrashSite("ams")
	if err := w.cdn.ReactToFailure("ams"); err != nil {
		t.Fatal(err)
	}
	msgs := w.net.MessageCount()
	w.converge()
	after := w.net.MessageCount()
	// Second reaction is a no-op: no new announcements.
	if err := w.cdn.ReactToFailure("ams"); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if w.net.MessageCount() != after {
		t.Fatalf("duplicate reaction generated traffic (%d -> %d, initial %d)",
			after, w.net.MessageCount(), msgs)
	}
}
