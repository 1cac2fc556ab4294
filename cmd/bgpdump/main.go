// Command bgpdump inspects MRT archives written by the simulator's route
// collectors, printing records in the familiar one-line-per-update format
// of the classic bgpdump tool (`bgpdump -m`).
//
// Usage:
//
//	bgpdump -in archive.mrt                  print an update archive
//	bgpdump -in rib.mrt -rib                 print a TABLE_DUMP_V2 RIB dump
//	bgpdump -generate archive.mrt [-seed N]  run a quick simulation (announce,
//	                                         converge, withdraw) and write its
//	                                         collector archive as MRT
//	bgpdump -generate rib.mrt -rib           write a RIB snapshot instead
//	bgpdump -generate a.mrt -in a.mrt        both: generate then print
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bestofboth/internal/bgp"
	"bestofboth/internal/collector"
	"bestofboth/internal/core"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

func main() {
	var (
		in       = flag.String("in", "", "MRT file to print")
		generate = flag.String("generate", "", "write a sample archive to this file")
		seed     = flag.Int64("seed", 42, "simulation seed for -generate")
		peers    = flag.Int("peers", 20, "collector peers for -generate")
		rib      = flag.Bool("rib", false, "use TABLE_DUMP_V2 RIB snapshots instead of update archives")
	)
	flag.Parse()
	if *in == "" && *generate == "" {
		fmt.Fprintln(os.Stderr, "usage: bgpdump [-in file.mrt] [-generate file.mrt]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *generate != "" {
		if err := generateArchive(*generate, *seed, *peers, *rib); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *generate)
	}
	if *in != "" {
		var err error
		if *rib {
			err = printRIB(*in)
		} else {
			err = printArchive(*in)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// generateArchive runs an announce → converge → withdraw cycle of a site
// prefix and dumps the collector's view.
func generateArchive(path string, seed int64, peers int, rib bool) error {
	topo, err := topology.Generate(topology.GenConfig{Seed: seed})
	if err != nil {
		return err
	}
	sim := netsim.New(seed)
	net := bgp.New(sim, topo, bgp.DefaultConfig())
	col := collector.New("rrc00")
	if err := col.Attach(net, collector.SelectPeers(topo, peers, seed)...); err != nil {
		return err
	}
	site := topo.NodesOfClass(topology.ClassCDN)[0]
	prefix := core.SitePrefix(0)
	if err := net.Originate(site.ID, prefix, nil); err != nil {
		return err
	}
	sim.RunUntil(1200)
	var writeErr error
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if rib {
		// Snapshot while the prefix is announced.
		writeErr = col.WriteRIBDump(f, topo, sim.Now())
	} else {
		net.Withdraw(site.ID, prefix)
		sim.Run()
		writeErr = col.WriteMRT(f, topo, prefix)
	}
	if writeErr != nil {
		return writeErr
	}
	return f.Close()
}

// printRIB renders a TABLE_DUMP_V2 dump in `bgpdump -m` style:
//
//	TABLE_DUMP2|B|<peer ip>|<peer as>|<prefix>|<as path>|IGP
//
// (no time field: a RIB entry carries none).
func printRIB(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := collector.ReadRIBDump(f)
	if err != nil {
		return err
	}
	for _, e := range entries {
		parts := make([]string, len(e.Path))
		for i, a := range e.Path {
			parts[i] = fmt.Sprintf("%d", a)
		}
		fmt.Printf("TABLE_DUMP2|B|%s|%d|%s|%s|IGP\n",
			collector.PeerAddr(e.Peer), e.PeerAS, e.Prefix, strings.Join(parts, " "))
	}
	fmt.Fprintf(os.Stderr, "%d RIB entries\n", len(entries))
	return nil
}

// printArchive renders a dump in `bgpdump -m` style:
//
//	BGP4MP_ET|<time>|A|<peer ip>|<peer as>|<prefix>|<as path>|IGP
//	BGP4MP_ET|<time>|W|<peer ip>|<peer as>|<prefix>
func printArchive(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := collector.ReadMRT(f)
	if err != nil {
		return err
	}
	for _, e := range entries {
		for _, p := range e.Update.Withdrawn {
			fmt.Printf("BGP4MP_ET|%.6f|W|%s|%d|%s\n", e.Time, e.PeerIP, e.PeerAS, p)
		}
		if len(e.Update.NLRI) > 0 {
			path := make([]string, len(e.Update.ASPath))
			for i, a := range e.Update.ASPath {
				path[i] = fmt.Sprintf("%d", a)
			}
			for _, p := range e.Update.NLRI {
				fmt.Printf("BGP4MP_ET|%.6f|A|%s|%d|%s|%s|IGP\n",
					e.Time, e.PeerIP, e.PeerAS, p, strings.Join(path, " "))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%d MRT entries\n", len(entries))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bgpdump: %v\n", err)
	os.Exit(1)
}
