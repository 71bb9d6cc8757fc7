package core

import (
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

// bitsString keeps the fake-decider declarations below compact.
type bitsString = bits.String

// --- Gadget properties (the facts the proofs of Theorems 1-3 rest on) ---

func TestSquareGadgetPropertyExhaustive(t *testing.T) {
	// For every square-free graph on 5 vertices and every pair (s,t):
	// G'_{s,t} has a C4 iff {s,t} ∈ E.
	n := 5
	total := n * (n - 1) / 2
	checked := 0
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		if g.HasSquare() {
			continue
		}
		checked++
		for s := 1; s <= n; s++ {
			for t2 := s + 1; t2 <= n; t2++ {
				gadget := SquareGadget(g, s, t2)
				if gadget.HasSquare() != g.HasEdge(s, t2) {
					t.Fatalf("mask %d (s=%d,t=%d): gadget square=%v edge=%v",
						mask, s, t2, gadget.HasSquare(), g.HasEdge(s, t2))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no square-free graphs checked")
	}
}

func TestSquareGadgetShape(t *testing.T) {
	g := gen.Path(4)
	gadget := SquareGadget(g, 1, 3)
	if gadget.N() != 8 {
		t.Fatalf("gadget n = %d, want 8", gadget.N())
	}
	// m = m(G) + n pendants + 1.
	if gadget.M() != g.M()+4+1 {
		t.Fatalf("gadget m = %d", gadget.M())
	}
	// Original vertices keep their neighborhoods plus the pendant.
	for v := 1; v <= 4; v++ {
		if !gadget.HasEdge(v, v+4) {
			t.Errorf("pendant edge {%d,%d} missing", v, v+4)
		}
	}
}

func TestDiameterGadgetPropertyExhaustive(t *testing.T) {
	// For EVERY graph on 5 vertices and every pair: diam(G'_{s,t}) ≤ 3 iff
	// {s,t} ∈ E — Theorem 2 needs no restriction on G.
	n := 5
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		for s := 1; s <= n; s++ {
			for t2 := s + 1; t2 <= n; t2++ {
				gadget := DiameterGadget(g, s, t2)
				if gadget.DiameterAtMost(3) != g.HasEdge(s, t2) {
					t.Fatalf("mask %d (s=%d,t=%d): diam≤3 = %v, edge = %v",
						mask, s, t2, gadget.DiameterAtMost(3), g.HasEdge(s, t2))
				}
			}
		}
	}
}

func TestDiameterGadgetIsFourWhenNonEdge(t *testing.T) {
	// The paper's Figure 1 remark: when {s,t} ∉ E, the longest path goes
	// between the two new pendant vertices and has length exactly 4.
	g := gen.Path(6) // 1 and 6 not adjacent
	gadget := DiameterGadget(g, 1, 6)
	if d := gadget.Diameter(); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	dist := gadget.BFSDistances(7) // n+1 = 7
	if dist[8] != 4 {
		t.Fatalf("d(n+1, n+2) = %d, want 4", dist[8])
	}
}

func TestTriangleGadgetPropertyExhaustiveBipartite(t *testing.T) {
	// For every bipartite graph with parts {1,2,3}, {4,5,6} and every cross
	// pair: G'_{s,t} has a triangle iff {s,t} ∈ E.
	n := 6
	// Enumerate cross-edge subsets only (3x3 = 9 possible edges).
	crossPairs := [][2]int{}
	for s := 1; s <= 3; s++ {
		for t2 := 4; t2 <= 6; t2++ {
			crossPairs = append(crossPairs, [2]int{s, t2})
		}
	}
	for mask := 0; mask < 1<<9; mask++ {
		g := graph.New(n)
		for i, pr := range crossPairs {
			if mask&(1<<uint(i)) != 0 {
				g.AddEdge(pr[0], pr[1])
			}
		}
		for _, pr := range crossPairs {
			gadget := TriangleGadget(g, pr[0], pr[1])
			if gadget.HasTriangle() != g.HasEdge(pr[0], pr[1]) {
				t.Fatalf("mask %d pair %v: triangle=%v edge=%v",
					mask, pr, gadget.HasTriangle(), g.HasEdge(pr[0], pr[1]))
			}
		}
	}
}

func TestFigureGraphs(t *testing.T) {
	// Figure 1: {1,7} is not an edge, so the gadget has diameter 4.
	f1 := Figure1Gadget()
	if f1.N() != 10 {
		t.Fatalf("Figure 1 gadget has %d vertices, want 10", f1.N())
	}
	if f1.DiameterAtMost(3) {
		t.Error("Figure 1 gadget should have diameter 4 ({1,7} is a non-edge)")
	}
	if d := f1.Diameter(); d != 4 {
		t.Errorf("Figure 1 gadget diameter = %d, want 4", d)
	}
	// Adding the edge {1,7} to the base brings the diameter down to 3.
	base := Figure1Base()
	base.AddEdge(1, 7)
	withEdge := DiameterGadget(base, 1, 7)
	if !withEdge.DiameterAtMost(3) {
		t.Error("with {1,7} an edge the gadget must have diameter ≤ 3")
	}

	// Figure 2: {2,7} is an edge, so the gadget contains a triangle.
	f2 := Figure2Gadget()
	if f2.N() != 8 {
		t.Fatalf("Figure 2 gadget has %d vertices, want 8", f2.N())
	}
	if ok, _ := Figure2Base().IsBipartite(); !ok {
		t.Fatal("Figure 2 base must be bipartite")
	}
	if Figure2Base().HasTriangle() {
		t.Fatal("Figure 2 base must be triangle-free")
	}
	if !f2.HasTriangle() {
		t.Error("Figure 2 gadget should contain a triangle ({2,7} is an edge)")
	}
	// Removing the edge removes the triangle.
	base2 := Figure2Base()
	base2.RemoveEdge(2, 7)
	if TriangleGadget(base2, 2, 7).HasTriangle() {
		t.Error("without {2,7} the gadget must be triangle-free")
	}
}

// --- End-to-end reductions against the exact oracle ---

func TestSquareReductionReconstructs(t *testing.T) {
	delta := &SquareReduction{Gamma: NewSquareOracle()}
	cases := []*graph.Graph{
		gen.ProjectivePlaneIncidence(2), // 14 vertices, C4-free, girth 6
		gen.GreedySquareFree(gen.NewRand(300), 16, 0),
		gen.RandomTree(gen.NewRand(301), 12),
		gen.Cycle(8),
		graph.New(4),
	}
	for i, g := range cases {
		if g.HasSquare() {
			t.Fatalf("case %d: test bug, graph has a square", i)
		}
		tr := reconstructAndCheck(t, g, delta)
		// |Δˡ(G)| = |Γˡ| evaluated at 2n: for the oracle that is 2n bits.
		for _, m := range tr.Messages {
			if m.Len() != 2*g.N() {
				t.Fatalf("case %d: message %d bits, want %d", i, m.Len(), 2*g.N())
			}
		}
	}
}

func TestDiameterReductionReconstructsArbitraryGraphs(t *testing.T) {
	delta := &DiameterReduction{Gamma: NewDiameterOracle(3)}
	rng := gen.NewRand(302)
	cases := []*graph.Graph{
		gen.Gnp(rng, 12, 0.3),
		gen.Gnp(rng, 12, 0.7), // dense, diameter reduction handles any graph
		gen.Complete(8),
		graph.New(6),
		gen.DisjointCliques(3, 4),
	}
	for i, g := range cases {
		tr := reconstructAndCheck(t, g, delta)
		// Message = 3 oracle messages of (n+3) bits plus framing.
		minBits := 3 * (g.N() + 3)
		for _, m := range tr.Messages {
			if m.Len() < minBits || m.Len() > minBits+3*32 {
				t.Fatalf("case %d: message %d bits, expected ≈ %d", i, m.Len(), minBits)
			}
		}
	}
}

func TestTriangleReductionReconstructsBipartite(t *testing.T) {
	delta := &TriangleReduction{Gamma: NewTriangleOracle()}
	rng := gen.NewRand(303)
	for trial := 0; trial < 6; trial++ {
		g := gen.RandomBipartite(rng, 7, 7, 0.4)
		tr := reconstructAndCheck(t, g, delta)
		minBits := 2 * (g.N() + 1)
		for _, m := range tr.Messages {
			if m.Len() < minBits || m.Len() > minBits+2*32 {
				t.Fatalf("message %d bits, expected ≈ %d", m.Len(), minBits)
			}
		}
	}
}

func TestTriangleReductionRequiresEvenN(t *testing.T) {
	delta := &TriangleReduction{Gamma: NewTriangleOracle()}
	g := graph.New(5)
	if _, _, err := engine.RunReconstructor(g, delta, engine.Serial{}); err == nil {
		t.Error("odd n should be rejected")
	}
}

func TestSquareReductionExhaustiveTiny(t *testing.T) {
	// Every square-free graph on 4 vertices reconstructs exactly.
	delta := &SquareReduction{Gamma: NewSquareOracle()}
	n := 4
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		if g.HasSquare() {
			continue
		}
		h, _, err := engine.RunReconstructor(g, delta, engine.Serial{})
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if !h.Equal(g) {
			t.Fatalf("mask %d: got %v, want %v", mask, h, g)
		}
	}
}

func TestDiameterReductionExhaustiveTiny(t *testing.T) {
	delta := &DiameterReduction{Gamma: NewDiameterOracle(3)}
	n := 4
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		h, _, err := engine.RunReconstructor(g, delta, engine.Serial{})
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if !h.Equal(g) {
			t.Fatalf("mask %d: got %v, want %v", mask, h, g)
		}
	}
}

// A deliberately broken "decider" (always answers false) must produce the
// empty reconstruction — reductions are only as good as Γ, which is the
// contrapositive the theorems use.
type alwaysNo struct{ inner engine.Decider }

func (a alwaysNo) LocalMessage(n, id int, nbrs []int) bitsString {
	return a.inner.LocalMessage(n, id, nbrs)
}
func (a alwaysNo) Decide(int, []bitsString) (bool, error) { return false, nil }

func TestReductionWithBrokenDecider(t *testing.T) {
	g := gen.Cycle(6)
	delta := &SquareReduction{Gamma: alwaysNo{NewSquareOracle()}}
	h, _, err := engine.RunReconstructor(g, delta, engine.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 0 {
		t.Error("broken decider should yield the empty graph")
	}
}

func TestCapacityAccounting(t *testing.T) {
	// All graphs on n=20 need C(20,2)=190 bits of entropy; a frugal protocol
	// with c=4 has 20·4·5 = 400 — reconstruction possible only because 400 ≥
	// 190 at this tiny n. At n=1000: capacity 4·10·1000 = 40000 <
	// C(1000,2) = 499500 — impossible, the Lemma 1 crossover.
	if !Reconstructible(Log2AllGraphs(20), FrugalCapacityBits(20, 4)) {
		t.Error("tiny n should be reconstructible")
	}
	if Reconstructible(Log2AllGraphs(1000), FrugalCapacityBits(1000, 4)) {
		t.Error("n=1000 all-graphs must exceed frugal capacity")
	}
	// Square-free graphs beat n·log n capacity for large n.
	n := 1 << 20
	if Reconstructible(Log2SquareFreeLowerBound(n), FrugalCapacityBits(n, 16)) {
		t.Error("square-free family must eventually exceed any frugal capacity")
	}
	// Bipartite count (n/2)² also beats it.
	if Reconstructible(Log2BalancedBipartite(n), FrugalCapacityBits(n, 16)) {
		t.Error("bipartite family must exceed frugal capacity")
	}
	// Degeneracy-k graphs (≈ k·n·log n bits of entropy) stay under capacity
	// with c ≥ k+2: sanity check the direction.
	logDegenerate := float64(3) * float64(n) * 20 // crude k·n·log₂n upper bound
	if !Reconstructible(logDegenerate, FrugalCapacityBits(n, 64)) {
		t.Error("bounded-degeneracy family should fit under capacity with large enough c")
	}
}
