package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transitions.golden")

// recoveryTechniques is every technique whose recovery path the lifecycle
// tests exercise: the classic six, the two load techniques, both
// extensions, and load-shift layered on each base with its own per-site or
// shared prefixes.
func recoveryTechniques() []Technique {
	techs := append(AllTechniques(), LoadTechniques()...)
	techs = append(techs, ExtensionTechniques()...)
	for _, base := range []Technique{Anycast{}, ReactiveAnycast{}, ProactivePrepending{Prepends: 3}, Combined{}} {
		techs = append(techs, LoadShift{Base: base})
	}
	return techs
}

// TestTechniqueTransitionsGolden pins the order in which every technique's
// deploy, failure reaction and recovery reach BGP: announcing the same set
// in a different order moves the UPDATE count, the state a few seconds in
// and the time the world falls quiet. Each step records the virtual time,
// the UPDATE count and a hash of the route and FIB digests, 3 s after the
// step and again at quiescence. Run with -update to rewrite the file.
func TestTechniqueTransitionsGolden(t *testing.T) {
	var b strings.Builder
	for _, tech := range recoveryTechniques() {
		w := newWorld(t, 7)
		record := func(step, at string) {
			sum := sha256.Sum256([]byte(w.net.RouteStateDigest() + w.plane.FIBDigest()))
			fmt.Fprintf(&b, "%s %s %s t=%s msgs=%d state=%x\n", tech.Name(), step, at,
				strconv.FormatFloat(float64(w.sim.Now()), 'g', -1, 64), w.net.MessageCount(), sum[:8])
		}
		steps := []struct {
			name string
			run  func() error
		}{
			{"deploy", func() error { return w.cdn.Deploy(tech) }},
			{"fail", func() error { _, err := w.cdn.FailSite("sea1"); return err }},
			{"recover", func() error { _, err := w.cdn.RecoverSite("sea1"); return err }},
		}
		for _, st := range steps {
			if err := st.run(); err != nil {
				t.Fatalf("%s %s: %v", tech.Name(), st.name, err)
			}
			w.sim.RunFor(3)
			record(st.name, "+3s")
			w.converge()
			record(st.name, "quiet")
		}
	}
	path := filepath.Join("testdata", "transitions.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("transitions differ from %s:\n%s", path, firstDiffLine(string(want), got))
	}
}
