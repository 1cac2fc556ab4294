// Command cdnsimd is the simulator's long-running control-plane daemon:
// it builds one deployed world, converges it, and serves the versioned
// HTTP/JSON API (pkg/bestofboth/api) over it until SIGINT or SIGTERM, on
// which it lets in-flight requests finish and exits 0.
//
// State is read through GET endpoints (/v1/state, /v1/digests, /v1/dns,
// /v1/load, /v1/catchments) and mutated exclusively through ChangeSets
// (POST /v1/changesets): dry-run by default against a copy-on-write
// snapshot of the live world, executed only with ?execute=true, and every
// execution carries a verification receipt re-diffing the predicted
// post-state against the actual one. GETs are served from the state the
// last execute published and never wait for a mutation; a ChangeSet that
// arrives while another runs is answered 503 with Retry-After.
//
// The daemon prints its listen URL to stdout as the first output line, so
// scripts can start it on port 0 and scrape the address:
//
//	cdnsimd -tech load-shift -demand -addr 127.0.0.1:0
//	listening on http://127.0.0.1:40123
//
// Interact with it via `cdnsim ctl -addr <url> ...` or plain curl.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/ctlplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
)

func main() {
	var (
		tech         = flag.String("tech", "reactive-anycast", `technique to deploy ("reactive-anycast", "load-shift", "load-shift+<base>", "proactive-prepending", ...)`)
		seed         = flag.Int64("seed", 42, "simulation seed (identical seeds reproduce the world bit-for-bit)")
		scale        = flag.String("scale", "1", `topology scale factor (1 ≈ 900 ASes), "paper", or "internet"`)
		shards       = flag.Int("shards", 1, "BGP shard simulators for the world (converged state is shard-count independent)")
		demand       = flag.Bool("demand", false, "attach the default demand model so /v1/load and ChangeSet load deltas carry traffic")
		addr         = flag.String("addr", "127.0.0.1:8316", "listen address (use port 0 for an ephemeral port)")
		testSabotage = flag.Bool("test-sabotage", false, "enable ?sabotage=true on execution: silently fail a healthy site's forwarding after executing, so the verification receipt must fail (testing the verifier, not the network)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cdnsimd: unexpected argument %q (the daemon takes flags only)\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(*tech, *seed, *scale, *shards, *demand, *addr, *testSabotage); err != nil {
		fmt.Fprintf(os.Stderr, "cdnsimd: %v\n", err)
		os.Exit(1)
	}
}

func run(tech string, seed int64, scale string, shards int, demand bool, addr string, testSabotage bool) error {
	technique, err := core.TechniqueByName(tech)
	if err != nil {
		return err
	}
	scaleF, err := experiment.ParseScale(scale)
	if err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}

	wopts := []experiment.Option{
		experiment.WithSeed(seed),
		experiment.WithScale(scaleF),
		experiment.WithShards(shards),
	}
	if demand {
		wopts = append(wopts, experiment.WithDefaultDemand())
	}
	cfg := ctlplane.Config{
		World:     experiment.DefaultWorldConfig(wopts...),
		Technique: technique,
		Obs:       obs.NewRegistry(), // backs GET /metrics
	}
	if testSabotage {
		cfg.Sabotage = sabotageHook
	}

	fmt.Fprintf(os.Stderr, "cdnsimd: building world (tech=%s seed=%d scale=%s shards=%d demand=%v)...\n",
		technique.Name(), seed, scale, shards, demand)
	srv, err := ctlplane.NewServer(cfg)
	if err != nil {
		return err
	}
	w := srv.World()
	fmt.Fprintf(os.Stderr, "cdnsimd: world converged: %d sites, %d targets, config %s\n",
		len(w.CDN.Sites()), len(w.Targets()), w.Cfg.Digest())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The listen URL is the daemon's only stdout output and always the
	// first line, so `cdnsimd -addr 127.0.0.1:0 | head -1` is scriptable.
	fmt.Printf("listening on http://%s\n", ln.Addr())

	// No WriteTimeout: an execute at internet scale legitimately runs for
	// tens of seconds. The read and idle bounds stop a slow or silent client
	// from holding a connection.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan error, 1)
	go func() {
		sig := <-sigs
		// Shutdown waits for in-flight handlers, so a signal never leaves the
		// world mid-apply.
		err := hs.Shutdown(context.Background())
		fmt.Fprintf(os.Stderr, "cdnsimd: %v: shut down\n", sig)
		stopped <- err
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-stopped
}

// sabotageHook is the standard -test-sabotage divergence: silently stop
// the first healthy site's forwarding plane after execution. Routing and
// DNS stay put, so exactly the catchment-derived fields (availability,
// per-site load) diverge from the prediction — the verification receipt
// must fail and must name them.
func sabotageHook(w *experiment.World) {
	for _, site := range w.CDN.Sites() {
		if !w.CDN.Failed(site.Code) {
			w.Plane.SetDown(site.Node, true)
			w.CDN.RefreshLoad()
			fmt.Fprintf(os.Stderr, "cdnsimd: SABOTAGE: silently downed %s's forwarding\n", site.Code)
			return
		}
	}
}
