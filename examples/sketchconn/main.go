// Sketchconn: the paper's main open question — one-round connectivity — and
// the two escape hatches this repository implements.
//
// Deterministically with O(log n)-bit messages the question is open (the
// authors "rather tend to believe there is no such protocol"). But:
//
//  1. If the vertex set is split into k parts whose members may pool their
//     knowledge, O(k log n) bits per node suffice (the paper's own remark).
//  2. With public randomness and polylog(n)-bit messages, ℓ₀-sampling
//     sketches decide connectivity in one round.
package main

import (
	"fmt"
	"log"

	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/sketch"
)

func main() {
	n := 64
	rng := gen.NewRand(99)
	connected := gen.ConnectedGnp(rng, n, 0.06)
	disconnected := gen.DisjointCliques(2, n/2)

	fmt.Println("== 1. k-partition connectivity (paper §IV remark) ==")
	for _, k := range []int{2, 4, 8} {
		pc := sketch.NewIntervalPartition(n, k)
		a, bitsA, err := pc.Run(connected)
		if err != nil {
			log.Fatal(err)
		}
		b, _, err := pc.Run(disconnected)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%2d parts: %d bits/node (= k·⌈log n⌉), verdicts: connected=%v, split=%v\n",
			k, bitsA, a, b)
		if !a || b {
			log.Fatal("partition protocol answered wrong")
		}
	}

	fmt.Println()
	fmt.Println("== 2. one-round randomized connectivity via linear sketches ==")
	sc := sketch.NewSketchConnectivity(n, 2024)
	fmt.Printf("message size: %d bits per node (polylog n; deterministic frugal = O(log n))\n",
		sc.MessageBits(n))

	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"connected G(n,p)", connected, true},
		{"two cliques", disconnected, false},
		{"barbell with bridge", gen.BarbellWithBridge(n / 2), true},
	} {
		got, tr, err := engine.RunDecider(tc.g, sc, engine.Chunked{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s referee says connected=%v (truth %v), max msg %d bits\n",
			tc.name, got, tc.want, tr.MaxBits())
	}

	// The sketches even hand the referee a spanning forest.
	tr := engine.LocalPhase(connected, sc, engine.Chunked{})
	forest, err := sc.SpanningForest(n, tr.Messages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spanning forest recovered from sketches: %d edges (n-1 = %d)\n",
		len(forest), n-1)

	fmt.Println()
	fmt.Println("== 3. one-round randomized bipartiteness (double-cover sketches) ==")
	// The paper's other open question: G is bipartite iff its double cover
	// has twice the components; both counts come out of the same sketches.
	sb := sketch.NewSketchBipartiteness(n, 77)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"grid (bipartite)", gen.Grid(8, 8), true},
		{"odd cycle", gen.Cycle(63), false},
		{"random bipartite", gen.RandomBipartite(rng, n/2, n/2, 0.2), true},
	} {
		got, _, err := engine.RunDecider(tc.g, sb, engine.Chunked{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s referee says bipartite=%v (truth %v)\n", tc.name, got, tc.want)
	}
}
