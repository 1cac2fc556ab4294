package main

import (
	"context"
	"errors"
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
)

const serveDoc = `Build one deployed world, converge it, and serve the versioned HTTP/JSON
API (pkg/bestofboth/api) over it until SIGINT or SIGTERM, on which
in-flight requests finish and the daemon exits 0.

State is read through GET endpoints (/v1/state, /v1/digests, /v1/dns,
/v1/load, /v1/catchments) and mutated only through ChangeSets (POST
/v1/changesets): dry-run by default against a copy-on-write snapshot of the
live world, executed only with ?execute=true, and every execution carries a
verification receipt re-diffing the predicted post-state against the
actual one. GETs serve the state the last execute published and never wait
for a mutation; a ChangeSet that arrives while another runs is answered 503
with Retry-After.

The first stdout line is the listen URL, so scripts can start the daemon
on port 0 and scrape the address:

  cdnsim serve -tech load-shift -demand -addr 127.0.0.1:0
  listening on http://127.0.0.1:40123

Drive it with cdnsim ctl -addr <url> ... or plain curl.`

// runServe implements the serve command (serveDoc).
func runServe(o *options) error {
	technique, err := core.TechniqueByName(o.tech)
	if err != nil {
		return err
	}
	cfg := ctlplane.Config{
		World:     o.worldConfig(),
		Technique: technique,
		Obs:       o.reg, // backs GET /metrics
	}
	if o.testSabotage {
		cfg.Sabotage = sabotageHook
	}

	fmt.Fprintf(os.Stderr, "cdnsim serve: building world (tech=%s seed=%d scale=%s shards=%d demand=%v)...\n",
		technique.Name(), o.seed, o.scale, o.shards, o.demand)
	srv, err := ctlplane.NewServer(cfg)
	if err != nil {
		return err
	}
	w := srv.World()
	fmt.Fprintf(os.Stderr, "cdnsim serve: world converged: %d sites, %d targets, config %s\n",
		len(w.CDN.Sites()), len(w.Targets()), w.Cfg.Digest())

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The listen URL is the daemon's only stdout output and always the
	// first line, so `cdnsim serve -addr 127.0.0.1:0 | head -1` is scriptable.
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
		fmt.Fprintf(os.Stderr, "cdnsim serve: %v: shut down\n", sig)
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
			fmt.Fprintf(os.Stderr, "cdnsim serve: SABOTAGE: silently downed %s's forwarding\n", site.Code)
			return
		}
	}
}
