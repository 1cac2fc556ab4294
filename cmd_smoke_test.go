package bestofboth_test

// Smoke tests for the examples no other test runs: tier-1 compiles the four
// examples but never executes them. Each is built into a temporary
// directory and driven through its documented flow.

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildInto builds pkg into dir and returns the binary's path.
func buildInto(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// stdoutOf runs the command, requires exit 0, and returns its stdout.
func stdoutOf(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s%s", filepath.Base(bin), args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs four default-scale worlds; skipped in -short")
	}
	dir := t.TempDir()
	for _, name := range []string{"quickstart", "failuredrill", "loadbalancer", "trafficsteering"} {
		out := stdoutOf(t, buildInto(t, dir, "./examples/"+name))
		if strings.TrimSpace(out) == "" {
			t.Errorf("%s printed nothing", name)
		}
		if name == "quickstart" && (!strings.Contains(out, "reconnection time") || !strings.Contains(out, "\nclient ends on site ")) {
			t.Errorf("quickstart never reported a reconnection and a final site:\n%s", out)
		}
	}
}
