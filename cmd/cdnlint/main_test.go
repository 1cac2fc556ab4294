package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The driver tests re-exec the test binary as cdnlint itself, so output
// and exit codes are exercised exactly as make lint sees them.
func TestMain(m *testing.M) {
	if os.Getenv("CDNLINT_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTool execs the test binary in tool mode and returns its streams and
// exit code.
func runTool(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CDNLINT_BE_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running tool: %v", err)
	}
	return out.String(), errb.String(), code
}

// writeDemoModule lays out a dependency-free module with one active
// finding and one suppressed one for standalone-driver tests.
func writeDemoModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"demo.go": `package demo

//cdnlint:allocfree
func Hot() func() int {
	return func() int { return 1 }
}

//cdnlint:allocfree
func Excused() func() int {
	//lint:ignore cdnlint/allocfree exercising suppression in the driver test
	return func() int { return 2 }
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStandaloneText(t *testing.T) {
	dir := writeDemoModule(t)
	out, errOut, code := runTool(t, dir, "./...")
	if code != 1 {
		t.Fatalf("standalone findings must exit 1, got %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "demo.go:5:") || !strings.Contains(out, "[cdnlint/allocfree]") {
		t.Fatalf("want a relativized file:line:col allocfree finding on stdout, got: %q", out)
	}
	if strings.Count(strings.TrimSpace(out), "\n") != 0 {
		t.Fatalf("the suppressed finding must not print, got: %q", out)
	}
}

const cleanSrc = `package demo

func Add(a, b int) int { return a + b }
`

func TestStandaloneCleanExitsZero(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module demo\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(cleanSrc), 0o666); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runTool(t, dir, "./...")
	if code != 0 || out != "" {
		t.Fatalf("clean tree must exit 0 silently: code=%d stdout=%q stderr=%q", code, out, errOut)
	}
}
