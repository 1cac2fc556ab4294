// Command topogen generates and inspects the synthetic Internet
// topologies used by the simulator.
//
// Usage:
//
//	topogen [flags]            print summary statistics
//	topogen -sites             also list each CDN site's attachments
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"bestofboth/internal/topology"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "generator seed")
		stubs   = flag.Int("stubs", 0, "stub AS count (0 = default)")
		eyeball = flag.Int("eyeballs", 0, "eyeball AS count (0 = default)")
		sites   = flag.Bool("sites", false, "print per-site attachment details")
	)
	flag.Parse()

	topo, err := topology.Generate(topology.GenConfig{
		Seed: *seed, NumStub: *stubs, NumEyeball: *eyeball,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}

	st := topo.ComputeStats()
	fmt.Printf("nodes: %d  links: %d  avg degree: %.1f\n", st.Nodes, st.Links, st.AvgDegree)
	fmt.Printf("customer links: %d  peer links: %d  prefix-bearing: %d\n",
		st.CustomerLinks, st.PeerLinks, st.TargetBearingPrefix)
	var classes []topology.Class
	for c := range st.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Printf("  %-12s %d\n", c, st.ByClass[c])
	}

	if *sites {
		fmt.Println("\nCDN sites:")
		for _, n := range topo.NodesOfClass(topology.ClassCDN) {
			fmt.Printf("  %-5s (node %d) neighbors:\n", n.Site, n.ID)
			for _, adj := range n.Adj {
				peer := topo.Node(adj.To)
				fmt.Printf("    %-9s %-20s (%s, %.1fms)\n",
					adj.Rel, peer.Name, peer.Class, adj.Delay*1000)
			}
		}
	}
}
