// Command collide searches exhaustively for collision certificates — pairs
// of graphs a frugal protocol cannot tell apart that differ on a hard
// predicate — and prints family-count capacity tables (Lemma 1).
//
// Usage:
//
//	collide -n 6 -protocol degree -pred triangle
//	collide -counts -n 6
//	collide -counts -n 8 -big -ranks 0:134217728
//	collide -counts -n 9 -big -ranks 34359738368:34493956096   # one fleet slice of the 2^36 space
package main

import (
	"flag"
	"fmt"
	"log"

	"refereenet/internal/collide"
	"refereenet/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("collide: ")
	n := flag.Int("n", 6, fmt.Sprintf("graph size to enumerate (≤ %d)", collide.MaxEnumerationN))
	protoName := flag.String("protocol", "degree", "strawman: degree|degree+sum|hash2|hash3|hash16|mod3|mod7|mod257|trunc|powersums2|powersums3")
	predName := flag.String("pred", "square", "predicate: square|triangle|diam3|connected")
	counts := flag.Bool("counts", false, "print family counts instead of searching")
	reconstruct := flag.Bool("reconstruct", false, "search for a same-family reconstruction collision instead of a decision collision")
	big := flag.Bool("big", false, "allow n ≥ 8 (n=8: 2.7·10⁸ graphs, seconds for -counts; n=9: 6.9·10¹⁰, core-hours — use -ranks to take one machine's slice of a fleet split)")
	ranks := flag.String("ranks", "", "with -counts: restrict to Gray-code ranks lo:hi of the size-n space; disjoint ranges counted on different machines merge by addition")
	flag.Parse()

	if *n > collide.MaxEnumerationN {
		log.Fatalf("n=%d exceeds the enumeration ceiling %d", *n, collide.MaxEnumerationN)
	}
	if *n >= 8 && !*big {
		log.Fatalf("n=%d enumerates %d graphs; pass -big to confirm", *n, uint64(1)<<uint(*n*(*n-1)/2))
	}

	if *counts {
		fmt.Printf("%6s %14s %14s %14s %14s %14s %14s\n",
			"n", "all", "square-free", "bipartite", "forests", "degen<=2", "connected")
		if *ranks != "" {
			// One machine's slice of a fleet-split count: a single row over
			// the requested rank range only.
			fc, err := countRanks(*n, *ranks)
			if err != nil {
				log.Fatal(err)
			}
			printCounts(fc)
			return
		}
		for i := 2; i <= *n; i++ {
			// The n = 8 row is 128× the n = 7 work: shard it over all CPUs.
			var fc collide.FamilyCounts
			if i >= 8 {
				fc = collide.CountParallel(i)
			} else {
				fc = collide.Count(i)
			}
			printCounts(fc)
		}
		return
	}

	if *n < 1 {
		log.Fatalf("n=%d: collision searches need at least one vertex", *n)
	}
	s, ok := strawmanByName(*protoName)
	if !ok {
		log.Fatalf("unknown protocol %q", *protoName)
	}
	pred, ok := predByName(*predName)
	if !ok {
		log.Fatalf("unknown predicate %q", *predName)
	}

	if *reconstruct {
		cert := collide.FindReconstructionCollision(s.Local, *n, nil)
		if cert == nil {
			fmt.Printf("no reconstruction collision for %s at n=%d\n", s.Label, *n)
			return
		}
		fmt.Printf("reconstruction collision for %s:\n  %s\n", s.Label, cert)
		return
	}
	cert := collide.FindDecisionCollision(s.Local, pred, *n, nil)
	if cert == nil {
		fmt.Printf("no %s collision for %s at n=%d (try a larger n or a weaker protocol)\n",
			*predName, s.Label, *n)
		return
	}
	fmt.Printf("certificate that %s cannot decide %q:\n  %s\n", s.Label, *predName, cert)
	fmt.Printf("  A: %s\n  B: %s\n", cert.GraphA(), cert.GraphB())
}

func printCounts(fc collide.FamilyCounts) {
	fmt.Printf("%6d %14d %14d %14d %14d %14d %14d\n",
		fc.N, fc.All, fc.SquareFree, fc.Bipartite, fc.Forests, fc.Degen2, fc.Connected)
}

// countRanks counts one Gray-code rank slice "lo:hi" of the size-n space.
func countRanks(n int, ranks string) (collide.FamilyCounts, error) {
	lo, hi, err := collide.ParseRankRange(ranks, n)
	if err != nil {
		return collide.FamilyCounts{}, fmt.Errorf("-ranks: %w", err)
	}
	return collide.CountRange(n, lo, hi)
}

func strawmanByName(name string) (collide.Strawman, bool) {
	// One vocabulary: the registry names (which double as engine registry
	// entries) and the descriptive labels both resolve.
	return collide.StrawmanByName(name)
}

func predByName(name string) (func(*graph.Graph) bool, bool) {
	switch name {
	case "square":
		return (*graph.Graph).HasSquare, true
	case "triangle":
		return (*graph.Graph).HasTriangle, true
	case "diam3":
		return func(g *graph.Graph) bool { return g.DiameterAtMost(3) }, true
	case "connected":
		return (*graph.Graph).IsConnected, true
	}
	return nil, false
}
