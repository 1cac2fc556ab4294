// Trafficsteering: compare the client-to-site control of anycast against
// proactive-prepending (§5.4.2). Anycast lets BGP pick the site; with
// per-site prefixes and prepended backups, DNS can steer most clients to
// the site the CDN wants while retaining anycast-grade failover.
package main

import (
	"fmt"
	"log"
	"sort"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/stats"
)

func main() {
	const seed = 21
	cfg := experiment.DefaultWorldConfig(experiment.WithSeed(seed))

	// World A: pure anycast. Catchments are whatever BGP policy produces.
	wa, err := experiment.NewWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := wa.CDN.Deploy(core.Anycast{}); err != nil {
		log.Fatal(err)
	}
	wa.Converge(3600)

	catchments := map[string]int{}
	targets := wa.Targets()
	for _, tgt := range targets {
		if s := wa.CDN.CatchmentOf(tgt.ID, core.AnycastServiceAddr); s != nil {
			catchments[s.Code]++
		}
	}
	fmt.Printf("anycast catchments across %d client networks:\n", len(targets))
	printDist(catchments, len(targets))

	// World B: proactive-prepending(3). The CDN decides per client.
	wb, err := experiment.NewWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := wb.CDN.Deploy(core.ProactivePrepending{Prepends: 3}); err != nil {
		log.Fatal(err)
	}
	wb.Converge(3600)

	fmt.Println("\nsteering success per intended site (all client networks):")
	t := &stats.Table{Header: []string{"site", "steerable", "of", "share"}}
	for _, s := range wb.CDN.Sites() {
		ok := 0
		for _, tgt := range targets {
			if wb.CDN.CanSteer(tgt.ID, s) {
				ok++
			}
		}
		t.AddRow(s.Code, fmt.Sprintf("%d", ok), fmt.Sprintf("%d", len(targets)),
			stats.Pct(float64(ok)/float64(len(targets))))
	}
	fmt.Println(t.Render())

	// Load balancing demo: split one metro's clients 50/50 between two
	// sites — impossible under anycast, a DNS knob under prepending.
	sea1, sea2 := wb.CDN.Site("sea1"), wb.CDN.Site("sea2")
	moved, kept := 0, 0
	for i, tgt := range targets {
		want := sea1
		if i%2 == 0 {
			want = sea2
		}
		if !wb.CDN.CanSteer(tgt.ID, want) {
			continue
		}
		if want == sea2 {
			moved++
		} else {
			kept++
		}
	}
	fmt.Printf("Seattle load split: %d clients steerable to sea2, %d to sea1.\n", moved, kept)
	fmt.Println("\nUnder anycast none of this is controllable: BGP fixed the mapping")
	fmt.Println("above. Under proactive-prepending the CDN flips DNS answers per")
	fmt.Println("client while prepended backups keep failover at anycast speed (§4).")
}

func printDist(m map[string]int, total int) {
	var codes []string
	for c := range m {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return m[codes[i]] > m[codes[j]] })
	for _, c := range codes {
		fmt.Printf("  %-5s %5d clients (%s)\n", c, m[c], stats.Pct(float64(m[c])/float64(total)))
	}
}
