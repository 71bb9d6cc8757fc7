// Multiround: the paper's closing question — what do more rounds buy?
//
// One concrete answer: with a referee broadcast between rounds, the
// degeneracy bound k need not be known in advance. Round r runs the
// Theorem 5 protocol with k = 2^{r-1}; the referee asks for another round
// (one broadcast bit) whenever Algorithm 4 gets stuck. A graph of degeneracy
// d is reconstructed in ⌈log₂ d⌉+1 rounds with O(d² log n) bits per node in
// total — no one-round protocol with a fixed k can do this.
package main

import (
	"fmt"
	"log"
	"math"

	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func main() {
	rng := gen.NewRand(5)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"random tree", gen.RandomTree(rng, 64)},
		{"grid 8x8", gen.Grid(8, 8)},
		{"apollonian (planar)", gen.Apollonian(rng, 64)},
		{"6-tree", gen.KTree(rng, 64, 6)},
		{"K16", gen.Complete(16)},
	}
	fmt.Printf("%-22s %6s %8s %8s %10s %10s\n",
		"graph", "degen", "rounds", "predict", "max bits", "exact")
	for _, c := range cases {
		d, _ := c.g.Degeneracy()
		res, err := engine.RunMultiRound(c.g, &core.AdaptiveReconstruction{}, 16, engine.Chunked{})
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		h := res.Output.(*graph.Graph)
		predict := 1
		if d > 1 {
			predict = int(math.Ceil(math.Log2(float64(d)))) + 1
		}
		fmt.Printf("%-22s %6d %8d %8d %10d %10v\n",
			c.name, d, res.Rounds, predict, res.MaxNodeBits(), h.Equal(c.g))
	}
	fmt.Println("\nrounds track ⌈log₂ d⌉+1; each extra round costs one broadcast bit.")
}
