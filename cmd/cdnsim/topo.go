package main

import (
	"fmt"
	"sort"

	"bestofboth/internal/topology"
)

// runTopo prints the summary statistics of the topology a world with these
// -seed and -scale is built on and, with -attachments, each CDN site's
// neighbors.
func runTopo(o *options) error {
	gc := o.worldConfig().Topology
	gc.Seed = o.seed
	topo, err := topology.Generate(gc)
	if err != nil {
		return err
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

	if o.attachments {
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
	return nil
}
