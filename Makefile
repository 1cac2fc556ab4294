GO ?= go

.PHONY: tier1 claims loc vet fmt lint lint-fixtures govulncheck race race-full bench-smoke ab profile-fig2 profile-converge profile-restore profile-dryrun outputs outputs-diff fuzz-smoke shard-equivalence solver-oracle ctlplane-smoke ci

# Tier-1 gate: must stay green (see ROADMAP.md).
tier1:
	$(GO) build ./... && $(GO) test ./...

# The paper's claims across seeds: BenchmarkPaperClaims (claims_test.go)
# prints, per claim, on how many of seeds 1–20 it holds at default scale
# (≈ 30 s on two cores). EXPERIMENTS.md quotes these k/20.
claims:
	$(GO) test -run '^$$' -bench '^BenchmarkPaperClaims$$' -benchtime 1x .

# Non-test Go line count, the measure of the ROADMAP's quality aim: every
# .go file that is not a _test.go and lies outside testdata/ and benchmark/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

vet:
	$(GO) vet ./...

# Formatting gate: fails, naming nothing else, when gofmt would rewrite any
# file in the tree (`gofmt -l .` lists the offenders).
fmt:
	test -z "$$(gofmt -l .)"

# Invariant lint: the cdnlint analyzer suite (internal/analysis) over the
# tree `make loc` counts. Exits non-zero on any unsuppressed diagnostic; see
# DESIGN.md "Invariants" for the checks and the suppression syntax.
# Not ./benchmark: a benchmark-class PR removes main.go's ignore for a retired check and restores ./... here.
lint:
	$(GO) run ./cmd/cdnlint $$($(GO) list ./... | grep -v '/benchmark$$')

# The analyzers' own test suites: the // want fixture corpus under
# internal/analysis/testdata plus the driver tests (cdnlint exec'd as a
# subprocess).
lint-fixtures:
	$(GO) test -count=1 ./internal/analysis/ ./cmd/cdnlint/

# Vulnerability scan, tolerant of offline environments: skips with a
# warning when govulncheck is not installed or the vulnerability database
# is unreachable, but fails hard when vulnerabilities are actually found
# (govulncheck exit code 3).
govulncheck:
	@if ! command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck: not installed; skipping vulnerability scan" >&2; \
		exit 0; \
	fi; \
	govulncheck ./...; code=$$?; \
	if [ $$code -eq 0 ]; then \
		exit 0; \
	elif [ $$code -eq 3 ]; then \
		echo "govulncheck: vulnerabilities found" >&2; exit 3; \
	else \
		echo "govulncheck: scan failed (exit $$code), likely unreachable vulnerability database; skipping" >&2; \
		exit 0; \
	fi

# Race tier: vet + race detector on the short-mode matrix.
race: vet
	$(GO) test -race -short ./...

# Full race run (slow; includes TestPaperClaims' integration worlds).
race-full: vet
	$(GO) test -race ./...

# The repository benchmark (BENCHMARK.json, benchmark/README.md) in quick
# mode: every workload runs one operation on a quarter-scale world with its
# output checks on (digests, receipts, headline medians), so CI catches a
# broken workload without paying for a measurement run.
bench-smoke:
	$(GO) run ./benchmark -workload all -quick

# An A/B measurement of the working tree against the committed tree of
# PARENT: PAIRS pairs of runs of one benchmark WORKLOAD, or of every workload
# with WORKLOAD=all (the benchmark's -workload all, each workload in its own
# process), on seeds SEED, SEED+1, ..., each run a fresh process, the side
# that runs first alternating from pair to pair. It refuses to run unless
# benchmark/ and BENCHMARK.json are the same on both sides, so both measure
# with the same code. It prints the benchmark's -compare rows for the
# workloads run and, per workload and end-to-end metric, the pairs the
# working tree won (lower is better; a tie counts for neither side). The two
# binaries, each run's output and the two JSONL files stay in ABDIR, a fresh
# temporary directory unless one is named.
WORKLOAD ?= converge-cold
PAIRS ?= 10
SEED ?= 1
ABDIR ?=
ab:
	@set -e; [ -n "$(PARENT)" ] || { echo "make ab: PARENT=<ref> is required" >&2; exit 2; }; \
	git diff --quiet "$(PARENT)" -- benchmark BENCHMARK.json || { \
		echo "make ab: benchmark/ or BENCHMARK.json differs from $(PARENT); both sides must run the same benchmark" >&2; exit 2; }; \
	dir="$(ABDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; dir=$$(cd "$$dir" && pwd); \
	src=$$(mktemp -d); trap 'rm -rf "$$src"' EXIT; \
	git archive "$(PARENT)" | tar -x -C "$$src"; \
	(cd "$$src" && $(GO) build -o "$$dir/parent" ./benchmark); \
	$(GO) build -o "$$dir/change" ./benchmark; \
	rm -f "$$dir/parent.jsonl" "$$dir/change.jsonl"; \
	i=0; while [ $$i -lt $(PAIRS) ]; do \
		seed=$$(($(SEED) + i)); order="parent change"; [ $$((i % 2)) -eq 0 ] || order="change parent"; \
		for side in $$order; do \
			echo "pair $$((i + 1))/$(PAIRS) seed $$seed: $$side"; \
			"$$dir/$$side" -workload $(WORKLOAD) -seed $$seed -out "$$dir/$$side.jsonl" >"$$dir/$$side-$$seed.log"; \
		done; \
		i=$$((i + 1)); \
	done; \
	rows='^(workload|$(WORKLOAD)) '; [ "$(WORKLOAD)" != all ] || rows=.; \
	"$$dir/change" -compare "$$dir/parent.jsonl" "$$dir/change.jsonl" | grep -E "$$rows" || true; \
	for w in $$(sed -n 's/^{"workload":"\([^"]*\)".*/\1/p' "$$dir/change.jsonl" | awk '!seen[$$0]++'); do \
		for side in parent change; do grep "^{\"workload\":\"$$w\"" "$$dir/$$side.jsonl" >"$$dir/$$side.w"; done; \
		for m in $$(head -n 1 "$$dir/change.w" | grep -o '"metrics":{.*' | grep -o '"[a-z0-9_.]*":{"value"' | cut -d'"' -f2); do \
			for side in parent change; do \
				sed -n 's/.*"metrics":{.*"'"$$m"'":{"value":\([^,}]*\).*/\1/p' "$$dir/$$side.w" >"$$dir/$$side.$$m"; \
			done; \
			paste "$$dir/parent.$$m" "$$dir/change.$$m" | \
				awk -v w="$$w" -v m="$$m" '$$2 < $$1 { k++ } END { printf "%-18s %-16s change wins %d/%d pairs\n", w, m, k, NR }'; \
			rm -f "$$dir/parent.$$m" "$$dir/change.$$m"; \
		done; \
		rm -f "$$dir/parent.w" "$$dir/change.w"; \
	done; \
	echo "runs kept in $$dir"

# CPU and allocation profiles at GOMAXPROCS=2, twenty iterations (2,000
# for the sub-millisecond restore, so the untimed setup does not swamp its
# profile; the benchmark line carries B/op and allocs/op) and then the top
# of both:
# profile-fig2 of BenchmarkFigure2Default (bench_test.go:
# the default-scale Figure 2 matrix on cached snapshots that `cdnsim fig2`
# and the benchmark's fig2-warm run — restore, withdrawal, probing),
# profile-converge of BenchmarkConvergePaper (one converge-cold operation:
# a paper-scale world from a fresh seed, deploy, cold converge),
# profile-restore of BenchmarkRestoreWorld (one of the 32 default-scale
# world restores a Figure 2 matrix makes, before its run writes),
# profile-dryrun of BenchmarkDryRun (one changeset-dryrun operation through
# the daemon's handler, without the loopback HTTP; 200 of them). The test
# binary and the profiles go under PROFDIR — a fresh temporary directory
# unless one is named — never into the repository.
PROFDIR ?=
PROFTIME = 20x
profile-fig2: PROFBENCH = BenchmarkFigure2Default
profile-converge: PROFBENCH = BenchmarkConvergePaper
profile-restore: PROFBENCH = BenchmarkRestoreWorld
profile-restore: PROFTIME = 2000x
profile-dryrun: PROFBENCH = BenchmarkDryRun
profile-dryrun: PROFTIME = 200x
profile-fig2 profile-converge profile-restore profile-dryrun:
	@set -e; dir="$(PROFDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	$(GO) test -run '^$$' -bench '$(PROFBENCH)$$' -cpu 2 -benchtime $(PROFTIME) -benchmem \
		-o "$$dir/$@.test" -outputdir "$$dir" -cpuprofile cpu.prof -memprofile mem.prof .; \
	$(GO) tool pprof -top -cum -nodecount 40 "$$dir/$@.test" "$$dir/cpu.prof"; \
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 20 "$$dir/$@.test" "$$dir/mem.prof"; \
	echo "profiles kept in $$dir"

# The deterministic -json artifacts a refactor must leave byte-identical:
# Figure 2 plain and under demand, validate, Figure 5, the combined
# technique, every bundled scenario under every technique, and rolling
# maintenance — each site drained and recovered — under load-shift over
# prepending, scoped prepending and load-shed, which -tech all leaves out, and
# the regional outage with the health monitor on under the seven techniques
# (the one output that runs the monitor through the scenario campaign), the
# unicast-DNS baseline (the one path through the DNS resolver and client), the
# capacity-aware load steering of `cdnsim load`, and Table 2 (which covers
# Table 1). OUT is
# required and must lie outside the repository; the *.manifest.json sidecars
# (wall clock) are dropped. "Bit-identical to the parent" is this target run
# in both checkouts and one diff -r; it is not part of ci for that reason.
OUT ?=
outputs:
	@set -e; [ -n "$(OUT)" ] || { echo "make outputs: OUT=<dir> is required" >&2; exit 2; }; \
	out="$(abspath $(OUT))"; \
	case "$$out/" in "$(CURDIR)/"*) echo "make outputs: OUT must lie outside the repository" >&2; exit 2;; esac; \
	mkdir -p "$$out"; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/cdnsim" ./cmd/cdnsim; \
	"$$bin/cdnsim" fig2 -seed 7 -json "$$out/fig2.json" >/dev/null; \
	"$$bin/cdnsim" fig2 -seed 7 -demand -tech load-shift,load-shed,anycast -json "$$out/fig2-demand.json" >/dev/null; \
	for c in validate fig5 combined; do \
		"$$bin/cdnsim" $$c -seed 11 -json "$$out/$$c.json" >/dev/null; \
	done; \
	for s in $$("$$bin/cdnsim" scenario -list | awk 'NR > 2 { print $$1 }'); do \
		"$$bin/cdnsim" scenario -seed 7 -name $$s -tech all -json "$$out/scenario-$$s.json" >/dev/null; \
	done; \
	"$$bin/cdnsim" scenario -seed 7 -name rolling-maintenance -tech load-shift+proactive-prepending,proactive-prepending-scoped,load-shed -json "$$out/scenario-rolling-maintenance-extra.json" >/dev/null; \
	"$$bin/cdnsim" scenario -seed 7 -name regional-outage -monitor -tech seven -json "$$out/scenario-regional-outage-monitor.json" >/dev/null; \
	"$$bin/cdnsim" unicast-dns -seed 11 -json "$$out/unicast-dns.json" >/dev/null; \
	"$$bin/cdnsim" load -seed 7 -tech load-shift,load-shed,load-shift+proactive-superprefix -json "$$out/load.json" >/dev/null; \
	"$$bin/cdnsim" table2 -seed 7 -json "$$out/table2.json" >/dev/null; \
	rm -f "$$out"/*.manifest.json; ls "$$out"

# Bit-identity against another commit: this Makefile's `outputs` run on the
# committed tree of PARENT (a `git archive` extracted to a temporary
# directory, so nothing is registered in the repository) and on the working
# tree, then one diff -r. Exits 0 and says so when every artifact is
# identical; otherwise prints the diff and exits 1. Everything it writes is
# removed on exit. Not part of ci: some changes alter outputs on purpose.
PARENT ?=
outputs-diff:
	@set -e; [ -n "$(PARENT)" ] || { echo "make outputs-diff: PARENT=<ref> is required" >&2; exit 2; }; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/src"; \
	git archive "$(PARENT)" | tar -x -C "$$tmp/src"; \
	$(MAKE) --no-print-directory -C "$$tmp/src" -f "$(CURDIR)/Makefile" outputs OUT="$$tmp/parent" \
		>"$$tmp/log" 2>&1 || { cat "$$tmp/log" >&2; exit 1; }; \
	$(MAKE) --no-print-directory outputs OUT="$$tmp/change" >"$$tmp/log" 2>&1 || { cat "$$tmp/log" >&2; exit 1; }; \
	diff -r "$$tmp/parent" "$$tmp/change"; \
	echo "make outputs-diff: all $$(ls "$$tmp/change" | wc -l) outputs identical to $(PARENT)"

# Control-plane gate: the end-to-end smoke test — build cdnsim, start
# `cdnsim serve` on an ephemeral port, and drive a drain ChangeSet dry-run →
# execute → verify (pass receipt, bit-identical digests) plus a sabotaged
# execution (fail receipt naming the diverging fields) — and the
# published-view, rollback, standing-snapshot and busy-daemon tests. `make lint` runs
# snapshotfields, with every other check, over every package.
ctlplane-smoke:
	$(GO) test -run 'TestCtlplaneSmoke|TestDiff|TestStateOf|TestPublished|TestExecuteRollsBack|TestDryRunAfter|TestRepeatedDryRun|TestReadsDoNotWait|TestChangeSetAuditTrail|TestPostRejectsTrailingData' -count=1 -v . ./internal/ctlplane/

# Fuzz smoke: every native fuzz target runs for FUZZTIME on top of its
# committed corpus (testdata/fuzz/<target>, which tier-1 already runs as plain
# unit cases). go test -fuzz takes one target in one package per invocation,
# so a new target is one more line here.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTrie -fuzztime=$(FUZZTIME) ./internal/iptrie
	$(GO) test -run='^$$' -fuzz=FuzzProber -fuzztime=$(FUZZTIME) ./internal/dataplane
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzWindows -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeTarget -fuzztime=$(FUZZTIME) ./internal/experiment
	$(GO) test -run='^$$' -fuzz=FuzzDNSDecode -fuzztime=$(FUZZTIME) ./internal/dns
	$(GO) test -run='^$$' -fuzz=FuzzSolveMatchesConverge -fuzztime=$(FUZZTIME) -parallel 2 ./internal/experiment

# Everything CI runs (see .github/workflows/ci.yml).
ci: tier1 claims vet fmt lint lint-fixtures govulncheck race bench-smoke fuzz-smoke shard-equivalence solver-oracle ctlplane-smoke

# Solver oracle gate: bgp.Solve against the event-driven converge it
# replaces — random hierarchies and the shared-ASN tie-breaks (bgp), a solve
# installed into a network (bgp.Network.Install) against the converged one
# through a fault, the solved target selection against the converged one,
# the fuzz corpus, TestSolverOracle at default and paper scale (every
# technique TechniqueByName resolves, shared providers 0 and 2, shards 1
# and 2, each single-site failure and recovery), the world oracle
# TestSolvedWorldMatchesConverged at default scale (NewConvergedWorld's
# solved worlds against the event-driven references, through Figure 2 and
# scenario runs) and the pin on the worlds that must converge event by
# event. The two internet- and paper-scale cases run in the weekly
# race-full workflow.
solver-oracle:
	$(GO) test -count=1 -run 'TestSolve' ./internal/bgp/
	$(GO) test -count=1 -run 'TestSelectTargetsMatchesReference|FuzzSolveMatchesConverge|TestUnsolvableWorldsConverge' ./internal/experiment/
	$(GO) test -count=1 -run 'TestSolverOracle/(default|paper)' ./internal/experiment/
	$(GO) test -count=1 -run 'TestSolvedWorldMatchesConverged/default' ./internal/experiment/

# Shard-equivalence gate: the digest tests proving shards=1 and shards=N
# produce bit-identical route and FIB state, and the world oracle's
# two-shard case (a converge across two shard kernels, handed off, against
# the solved world), run under the race detector (the sharded runner's
# worker handoffs are exactly what -race scrutinizes).
shard-equivalence:
	$(GO) test -race -run 'TestSharded.*Equivalence|TestShardRunner' ./internal/experiment/ ./internal/netsim/
	$(GO) test -race -run 'TestSolvedWorldMatchesConverged/default/shards=2' ./internal/experiment/
