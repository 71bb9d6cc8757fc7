package congest

import (
	"testing"

	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func TestStarNetwork(t *testing.T) {
	g := gen.Cycle(5)
	star, ref := StarNetwork(g)
	if ref != 6 || star.N() != 6 {
		t.Fatalf("referee id %d, n %d", ref, star.N())
	}
	if star.Degree(ref) != 5 {
		t.Errorf("referee degree %d, want 5", star.Degree(ref))
	}
	for _, e := range g.Edges() {
		if !star.HasEdge(e[0], e[1]) {
			t.Errorf("missing original edge %v", e)
		}
	}
	if star.M() != g.M()+5 {
		t.Errorf("m = %d", star.M())
	}
}

func TestRunOneRoundMatchesSim(t *testing.T) {
	// The CONGEST realization must deliver exactly the engine.LocalPhase
	// message vector.
	rng := gen.NewRand(600)
	g := gen.KTree(rng, 20, 3)
	p := &core.DegeneracyProtocol{K: 3}
	msgs, eng, err := RunOneRound(g, p)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.LocalPhase(g, p, engine.Serial{})
	for i := range want.Messages {
		if !msgs[i].Equal(want.Messages[i]) {
			t.Fatalf("message %d differs between CONGEST and abstract model", i+1)
		}
	}
	// One round of node→referee sends: engine needs 2 rounds (send, deliver).
	if eng.Rounds() > 2 {
		t.Errorf("engine used %d rounds, want ≤ 2", eng.Rounds())
	}
	// Each star link carried exactly one protocol message.
	for v := 1; v <= g.N(); v++ {
		if got := eng.LinkTraffic(v, g.N()+1); got != p.MessageBits(g.N()) {
			t.Errorf("link %d–referee carried %d bits, want %d", v, got, p.MessageBits(g.N()))
		}
	}
	// Links of G itself carried nothing: the model never uses them.
	for _, e := range g.Edges() {
		if eng.LinkTraffic(e[0], e[1]) != 0 {
			t.Errorf("graph link %v carried traffic", e)
		}
	}
}

func TestRunReconstructorOverCongest(t *testing.T) {
	rng := gen.NewRand(601)
	g := gen.Apollonian(rng, 25)
	h, _, err := RunReconstructor(g, &core.DegeneracyProtocol{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatal("CONGEST-realized reconstruction differs")
	}
}

func TestRunDeciderOverCongest(t *testing.T) {
	g := gen.Cycle(8)
	ans, _, err := RunDecider(g, core.NewSquareOracle())
	if err != nil {
		t.Fatal(err)
	}
	if ans {
		t.Error("C8 has no square")
	}
	g2 := gen.Complete(4)
	ans, _, err = RunDecider(g2, core.NewSquareOracle())
	if err != nil {
		t.Fatal(err)
	}
	if !ans {
		t.Error("K4 contains a square")
	}
}

func TestBFSFlooding(t *testing.T) {
	rng := gen.NewRand(602)
	g := gen.ConnectedGnp(rng, 30, 0.12)
	eng := NewEngine(g)
	nodes := make(map[int]*BFSNode)
	eng.AssignAll(func(v int) Node {
		b := &BFSNode{Root: 1}
		nodes[v] = b
		return b
	})
	if _, err := eng.Run(2 * g.N()); err != nil {
		t.Fatal(err)
	}
	want := g.BFSDistances(1)
	for v := 1; v <= g.N(); v++ {
		if nodes[v].Dist() != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, nodes[v].Dist(), want[v])
		}
		if v != 1 && want[v] > 0 {
			p := nodes[v].Parent()
			if p == 0 || want[p] != want[v]-1 || !g.HasEdge(v, p) {
				t.Fatalf("vertex %d: bad BFS parent %d", v, p)
			}
		}
	}
	// CONGEST constraint: every message is O(log n).
	if eng.MaxRoundMessageBits() > 2*bitsWidth(g.N()) {
		t.Errorf("message of %d bits breaks the CONGEST budget", eng.MaxRoundMessageBits())
	}
	// Frugality in the Grumbach–Wu sense: each link carries O(log n) total.
	if eng.MaxLinkTraffic() > 4*bitsWidth(g.N()) {
		t.Errorf("link traffic %d bits exceeds frugal budget", eng.MaxLinkTraffic())
	}
}

func bitsWidth(n int) int {
	b := 0
	for v := n; v > 0; v >>= 1 {
		b++
	}
	return b
}

func TestBFSDisconnected(t *testing.T) {
	g := gen.DisjointCliques(2, 4)
	eng := NewEngine(g)
	nodes := make(map[int]*BFSNode)
	eng.AssignAll(func(v int) Node {
		b := &BFSNode{Root: 1}
		nodes[v] = b
		return b
	})
	if _, err := eng.Run(20); err != nil {
		t.Fatal(err)
	}
	for v := 5; v <= 8; v++ {
		if nodes[v].Dist() != -1 {
			t.Errorf("vertex %d in other component got dist %d", v, nodes[v].Dist())
		}
	}
}

func TestEngineRejectsIllegalSends(t *testing.T) {
	g := gen.Path(3)
	eng := NewEngine(g)
	eng.AssignAll(func(v int) Node { return &rogueNode{target: 3} })
	if _, err := eng.Run(3); err == nil {
		t.Error("sending over a non-link should fail")
	}
	eng2 := NewEngine(g)
	eng2.AssignAll(func(v int) Node { return &forgerNode{} })
	if _, err := eng2.Run(3); err == nil {
		t.Error("forged sender should fail")
	}
}

func TestEngineRequiresAssignment(t *testing.T) {
	eng := NewEngine(gen.Path(3))
	eng.Assign(1, &BFSNode{Root: 1})
	if _, err := eng.Run(3); err == nil {
		t.Error("unassigned vertices should fail")
	}
}

// rogueNode tries to message a non-neighbor.
type rogueNode struct{ target int }

func (r *rogueNode) Init(n, id int, neighbors []int) []Message {
	if id == 1 {
		return []Message{{From: 1, To: r.target}}
	}
	return nil
}
func (r *rogueNode) Round(int, []Message) ([]Message, bool) { return nil, true }

// forgerNode fakes its sender ID.
type forgerNode struct{}

func (f *forgerNode) Init(n, id int, neighbors []int) []Message {
	if id == 1 {
		return []Message{{From: 2, To: 2}}
	}
	return nil
}
func (f *forgerNode) Round(int, []Message) ([]Message, bool) { return nil, true }

func TestCongestRealizationExhaustiveTiny(t *testing.T) {
	// Every graph on 4 vertices: the CONGEST path and the abstract path give
	// identical reconstruction results.
	n := 4
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		d, _ := g.Degeneracy()
		p := &core.DegeneracyProtocol{K: d}
		viaCongest, _, err1 := RunReconstructor(g, p)
		viaSim, _, err2 := engine.RunReconstructor(g, p, engine.Serial{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("mask %d: error mismatch %v vs %v", mask, err1, err2)
		}
		if err1 == nil && !viaCongest.Equal(viaSim) {
			t.Fatalf("mask %d: results differ", mask)
		}
	}
}
