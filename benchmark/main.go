// Command benchmark is the repository's one performance benchmark: seven
// closed-loop workloads over the simulator's public Go functions, three
// end-to-end metrics each, and a traced mode that prices every layer.
// BENCHMARK.json declares what it reports; README.md says why.
//
//	go run ./benchmark -workload converge-cold -seed 1
//	go run ./benchmark -workload all -seed 1 -out a.jsonl
//	go run ./benchmark -workload fig2-warm -trace 1 -spans spans.json
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// The last line on standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// record (workload, seed, environment, sample counts, check failures).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"

	"bestofboth/internal/obs"
)

// maxProcs pins the scheduler to the two cores the reference machine has:
// every workload uses at most two workers or two shards, and before Go 1.25
// GOMAXPROCS ignores a container's CPU quota.
const maxProcs = 2

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\" (each in its own process)")
	seed := flag.Int64("seed", 1, "seed every input derives from; operation i uses seed+i")
	seconds := flag.Float64("seconds", 12, "time box for the timed operations of an untraced run")
	trace := flag.Int("trace", 0, "1 = traced run: one worker, obs registry and spans attached, per-layer metrics reported")
	spans := flag.String("spans", "", "traced run: write spans and the per-layer self-time table to this file")
	out := flag.String("out", "", "append the run's record to this file, one JSON object per line")
	quick := flag.Bool("quick", false, "smoke run: one operation on a quarter-scale world")
	cmp := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.jsonl b.jsonl")
		}
		a, err := readRecords(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		b, err := readRecords(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !compare(os.Stdout, a, b) {
			os.Exit(1)
		}
	case *name == "all":
		os.Exit(runAll())
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q; have %v and \"all\"", *name, workloadNames())
		}
		e := &env{seed: *seed, quick: *quick, workers: maxProcs}
		if *trace != 0 {
			e.workers, e.reg, e.tr = 1, obs.NewRegistry(), newTracer()
		}
		rec := run(w, e, *seconds)
		//lint:ignore cdnlint/detflow a benchmark's output is wall-clock measurements by definition; no digest or simulation artifact derives from it
		if err := report(rec, *out); err != nil {
			fatalf("%v", err)
		}
		if e.tr != nil && *spans != "" {
			if err := e.tr.writeFile(*spans); err != nil {
				fatalf("%v", err)
			}
		}
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// resultLine encodes the result object the benchmark contract names:
// exactly the keys correct, attempted, failed and metrics.
func resultLine(rec *record) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
}

// report prints the record and then, as the last line, the result object,
// and appends the record to outPath if set.
func report(rec *record, outPath string) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	last, err := resultLine(rec)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Printf("%s\n%s\n", full, last)
	if outPath == "" {
		return nil
	}
	f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(full, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own, passing its other
// flags through: experiment.worldSnaps and topology.genCache are
// process-global, hold 32 entries and never evict, so workloads sharing a
// process would turn each other's warm operations cold. It returns the
// exit code: non-zero if any workload failed a check.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fatalf("locating own binary: %v", err)
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// vcsRevision is the commit the binary was built from, where the go tool
// stamped one (go build inside a git checkout), else "unknown".
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
