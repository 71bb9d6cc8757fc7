// Impossibility: the paper's negative results, executed.
//
// Part 1 runs Algorithm 1 (the square reduction) end to end: given ANY
// one-round decider Γ for "does G contain a C4?", the referee can
// reconstruct every square-free graph — so a frugal Γ would compress
// 2^Θ(n^{3/2}) graphs into 2^O(n log n) messages, which is impossible.
//
// Part 2 exhibits the impossibility concretely: explicit pairs of graphs
// with IDENTICAL message vectors under capacity-starved frugal protocols but
// different answers to the hard predicates.
package main

import (
	"fmt"
	"log"

	"refereenet/internal/collide"
	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func main() {
	fmt.Println("== Part 1: the reduction of Theorem 1 (Algorithm 1) ==")
	// A square-free graph with Θ(n^{3/2}) edges: the point-line incidence
	// graph of the projective plane PG(2,3).
	g := gen.ProjectivePlaneIncidence(3)
	fmt.Printf("square-free input: n=%d m=%d girth=%d\n", g.N(), g.M(), g.Girth())

	// Δ is built from a square-decider Γ. The nodes answer as if they lived
	// in the gadget G'_{s,t}; the referee synthesizes the gadget vertices'
	// messages and interrogates Γ once per vertex pair.
	delta := &core.SquareReduction{Gamma: core.NewSquareOracle()}
	h, tr, err := engine.RunReconstructor(g, delta, engine.Chunked{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Δ reconstructed the graph exactly: %v\n", h.Equal(g))
	fmt.Printf("Δ message size = %d bits = |Γ| at 2n (oracle rows are 2n bits)\n", tr.MaxBits())
	fmt.Println("⇒ any frugal Γ would make Δ frugal, contradicting Lemma 1.")

	fmt.Println()
	fmt.Println("== Part 2: explicit collision certificates (Lemma 1's pigeonhole) ==")
	preds := []struct {
		name string
		f    func(*graph.Graph) bool
	}{
		{"contains C4", (*graph.Graph).HasSquare},
		{"contains triangle", (*graph.Graph).HasTriangle},
		{"diameter ≤ 3", func(g *graph.Graph) bool { return g.DiameterAtMost(3) }},
		{"connected", (*graph.Graph).IsConnected},
	}
	s := collide.DegreeOnly()
	for _, pr := range preds {
		var cert *collide.Certificate
		for n := 4; n <= 6 && cert == nil; n++ {
			cert = collide.FindDecisionCollision(s.Local, pr.f, n, nil)
		}
		if cert == nil {
			log.Fatalf("no certificate for %s", pr.name)
		}
		fmt.Printf("\n%q vs the %s protocol:\n", pr.name, s.Label)
		fmt.Printf("  %s  → %s = %v\n", cert.GraphA(), pr.name, cert.PredA)
		fmt.Printf("  %s  → %s = %v\n", cert.GraphB(), pr.name, cert.PredB)
		fmt.Println("  both send the referee bit-identical message vectors: no global")
		fmt.Println("  function can answer correctly on both.")
	}
}
