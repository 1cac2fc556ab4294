package bestofboth_test

// Control-plane smoke test: the `make ctlplane-smoke` gate. It builds the
// real cdnsim binary, starts `cdnsim serve` on an ephemeral port, and
// drives a drain ChangeSet through the full lifecycle with `cdnsim ctl`:
// dry-run → execute → verify. The acceptance bar is the
// tentpole's promise — the dry run's predicted per-site load deltas are
// exactly what execution produces (pass receipt, bit-identical digests),
// and a sabotaged execution yields a fail receipt naming the diverging
// fields. Last, SIGTERM must stop the daemon with exit status 0.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"bestofboth/pkg/bestofboth/api"
)

func TestCtlplaneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and a daemon world; skipped in -short")
	}
	dir := t.TempDir()
	cdnsim := buildInto(t, dir, "./cmd/cdnsim")

	// Start the daemon on an ephemeral port; its first stdout line carries
	// the listen URL.
	daemon := exec.Command(cdnsim, "serve",
		"-tech", "load-shift", "-demand", "-scale", "0.3",
		"-addr", "127.0.0.1:0", "-test-sabotage")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = nil
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading daemon listen line: %v", err)
	}
	base := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	if !strings.HasPrefix(base, "http://") {
		t.Fatalf("unexpected daemon banner %q", line)
	}
	waitHealthy(t, base)

	ctl := func(wantExit int, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(cdnsim, append([]string{"ctl", "-addr", base}, args...)...)
		out, err := cmd.Output()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("cdnsim ctl %v: %v", args, err)
		}
		if exit != wantExit {
			t.Fatalf("cdnsim ctl %v exited %d, want %d\n%s", args, exit, wantExit, out)
		}
		return out
	}

	// The daemon's Prometheus scrape endpoint: text exposition 0.0.4 with
	// at least the kernel step counter present. The daemon runs with
	// -metrics default-on, so this closes the registry → scrape loop.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metricsBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d\n%s", resp.StatusCode, metricsBody)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q, want Prometheus text 0.0.4", ct)
	}
	if !strings.Contains(string(metricsBody), "netsim_events_executed_total") {
		t.Fatalf("/metrics exposition lacks netsim_events_executed_total:\n%.2000s", metricsBody)
	}

	var st api.WorldState
	mustJSON(t, ctl(0, "state"), &st)
	if len(st.Sites) < 3 {
		t.Fatalf("world has %d sites, want >= 3", len(st.Sites))
	}
	drainSite, sabotageDrain := st.Sites[1].Code, st.Sites[2].Code

	// Dry-run the drain, then execute it: same Pre-state, so the dry run's
	// predicted per-site load deltas must be exactly what execution
	// produces, and the receipt must pass with bit-identical digests.
	var dry, exe api.ChangeSet
	mustJSON(t, ctl(0, "drain", drainSite), &dry)
	if dry.Status != api.StatusDryRun || dry.Receipt != nil {
		t.Fatalf("dry run: status %q receipt %v", dry.Status, dry.Receipt)
	}
	if !hasTransition(dry.Delta, drainSite, "failed") {
		t.Fatalf("dry run predicts no %s drain: %+v", drainSite, dry.Delta)
	}
	mustJSON(t, ctl(0, "-x", "drain", drainSite), &exe)
	if exe.Status != api.StatusExecuted || exe.Receipt == nil || !exe.Receipt.Pass {
		t.Fatalf("execute: status %q receipt %+v", exe.Status, exe.Receipt)
	}
	if !reflect.DeepEqual(dry.Delta, exe.Delta) {
		t.Fatalf("executed delta differs from dry-run prediction:\ndry: %+v\nexe: %+v", dry.Delta, exe.Delta)
	}
	if exe.Actual == nil || exe.Predicted.Digests != exe.Actual.Digests {
		t.Fatalf("digests not bit-identical after verified execution:\npredicted %+v\nactual    %+v",
			exe.Predicted.Digests, exe.Actual.Digests)
	}

	// A sabotaged execution must fail verification and name the diverging
	// fields — none of which may be routing/DNS digests (the sabotage is a
	// silent data-plane failure; the receipt must be precise, not noisy).
	var sab api.ChangeSet
	mustJSON(t, ctl(3, "-x", "-sabotage", "drain", sabotageDrain), &sab)
	if sab.Status != api.StatusDiverged || sab.Receipt == nil || sab.Receipt.Pass {
		t.Fatalf("sabotaged execute: status %q receipt %+v", sab.Status, sab.Receipt)
	}
	if len(sab.Receipt.Diffs) == 0 {
		t.Fatal("sabotaged execution's fail receipt names no fields")
	}
	for _, d := range sab.Receipt.Diffs {
		if d.Field == "digests.routeStateSHA256" || d.Field == "digests.dnsZoneSHA256" {
			t.Fatalf("fail receipt names un-diverged field %q", d.Field)
		}
		if d.Predicted == d.Actual {
			t.Fatalf("diff %q reports equal values %q", d.Field, d.Predicted)
		}
	}

	// The record survives: the three ChangeSets are listed in order with
	// their final statuses.
	var list struct {
		ChangeSets []api.ChangeSet `json:"changesets"`
	}
	mustJSON(t, ctl(0, "changesets"), &list)
	var statuses []string
	for _, cs := range list.ChangeSets {
		statuses = append(statuses, cs.Status)
	}
	want := []string{api.StatusDryRun, api.StatusExecuted, api.StatusDiverged}
	if !reflect.DeepEqual(statuses, want) {
		t.Fatalf("changeset statuses %v, want %v", statuses, want)
	}

	// Reads serve the view the last execute published: the live state is
	// that ChangeSet's actual post-state, field for field.
	var after api.WorldState
	mustJSON(t, ctl(0, "state"), &after)
	if sab.Actual == nil || !reflect.DeepEqual(after, *sab.Actual) {
		t.Fatalf("GET /v1/state after the last execute differs from its actual post-state:\nstate  %+v\nactual %+v", after, sab.Actual)
	}

	// SIGTERM stops the daemon cleanly: exit status 0 within 10 s.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon still running 10 s after SIGTERM")
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", base)
}

func mustJSON(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding ctl output: %v\n%s", err, data)
	}
}

func hasTransition(d api.Delta, site, transition string) bool {
	for _, sd := range d.Sites {
		if sd.Site == site && sd.Transition == transition {
			return true
		}
	}
	return false
}
