package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden usage files under testdata/usage")

// TestMain lets the test binary stand in for cdnsim: with CDNSIM_TEST_MAIN
// set it runs cli on its arguments and exits, so the tests below drive the
// real command line — parsing, usage text, exit status — without a build.
func TestMain(m *testing.M) {
	if os.Getenv("CDNSIM_TEST_MAIN") != "" {
		os.Exit(cli(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// cdnsim runs the command line args and returns its output and exit status.
// A run still going after a minute is killed (exit -1): a command line that
// should have been refused must not hang the suite building worlds.
func cdnsim(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CDNSIM_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatalf("cdnsim %q: %v", args, err)
	}
	return out.String(), errOut.String(), exit
}

// TestUsageGolden pins `cdnsim -h` and every `cdnsim <command> -h`: the
// command list and, per command, exactly the flags it accepts. Run with
// -update to rewrite the files after an intended change.
func TestUsageGolden(t *testing.T) {
	check := func(golden string, args ...string) {
		t.Helper()
		_, stderr, exit := cdnsim(t, args...)
		if exit != 0 {
			t.Errorf("cdnsim %q exited %d", args, exit)
		}
		path := filepath.Join("testdata", "usage", golden)
		if *update {
			if err := os.WriteFile(path, []byte(stderr), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if stderr != string(want) {
			t.Errorf("cdnsim %q usage differs from %s (rerun with -update if intended):\n%s", args, path, stderr)
		}
	}
	check("cdnsim.txt", "-h")
	for _, c := range commands {
		check(c.name+".txt", c.name, "-h")
	}

	// With no arguments the usage goes out as an error.
	_, stderr, exit := cdnsim(t)
	if want, _ := os.ReadFile(filepath.Join("testdata", "usage", "cdnsim.txt")); exit != 2 || stderr != string(want) {
		t.Errorf("bare cdnsim: exit %d, stderr\n%s", exit, stderr)
	}
}

// TestCommandsRefuseUnreadFlags checks the table itself: every flag a
// command lists is declared, every declared flag is read by some command,
// and every other flag is refused at parse time.
func TestCommandsRefuseUnreadFlags(t *testing.T) {
	var declared []string
	(&options{}).declareFlags().VisitAll(func(f *flag.Flag) { declared = append(declared, f.Name) })
	read := map[string]bool{}
	for i := range commands {
		c := &commands[i]
		for _, name := range declared {
			fs := (&options{}).flagSet(c)
			fs.SetOutput(io.Discard)
			err := fs.Parse([]string{"-" + name + "=1"})
			reads := slices.Contains(c.flags, name)
			read[name] = read[name] || reads
			if !reads && err == nil {
				t.Errorf("%s accepts -%s, which it does not read", c.name, name)
			}
		}
	}
	for _, name := range declared {
		if !read[name] {
			t.Errorf("-%s is declared but no command reads it", name)
		}
	}
}

// TestBadUsageExits2 drives bad command lines through the real binary path:
// each is refused before any world is built, with exit status 2.
func TestBadUsageExits2(t *testing.T) {
	cases := [][]string{
		{"fig3", "-ttl", "5"},
		{"fig3", "-c1-site", "zzz"},
		{"load", "-demand"},
		{"serve", "-json", "out.json"},
		{"ctl", "-seed", "3", "state"},
		{"-seed", "3", "fig2"}, // flags before the command word
		{"fig9"},
		{"fig2", "extra"},
		{"fig2", "-scale", "huge"},
		{"fig2", "-shards", "0"},
	}
	for _, c := range commands {
		if slices.Contains(c.flags, "sites") {
			cases = append(cases, []string{c.name, "-sites", ""}, []string{c.name, "-sites", " , "})
		}
	}
	for _, args := range cases {
		stdout, stderr, exit := cdnsim(t, args...)
		if exit != 2 || stdout != "" {
			t.Errorf("cdnsim %q: exit %d, want 2 with nothing on stdout\nstdout: %s\nstderr: %s", args, exit, stdout, stderr)
		}
		if len(args) == 3 && args[1] == "-sites" && !strings.Contains(stderr, "-sites names no site") {
			t.Errorf("cdnsim %q: stderr %q does not name -sites", args, stderr)
		}
	}
}

func TestTopo(t *testing.T) {
	summary, _, exit := cdnsim(t, "topo", "-scale", "0.1")
	if exit != 0 || !strings.HasPrefix(summary, "nodes: ") || strings.Contains(summary, "CDN sites:") {
		t.Fatalf("topo: exit %d\n%s", exit, summary)
	}
	out, _, exit := cdnsim(t, "topo", "-scale", "0.1", "-attachments")
	if exit != 0 || !strings.HasPrefix(out, summary) || !strings.Contains(out, "CDN sites:") || !strings.Contains(out, "atl") {
		t.Fatalf("topo -attachments: exit %d, no site attachments after the summary:\n%s", exit, out)
	}
}
