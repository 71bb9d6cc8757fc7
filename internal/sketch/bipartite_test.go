package sketch

import (
	"testing"

	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func TestDoubleCoverIdentity(t *testing.T) {
	// #cc(DC) = 2·(bipartite components) + (odd components), exhaustively on
	// all graphs with 5 vertices.
	n := 5
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		dc := DoubleCover(g)
		comp, k := g.ConnectedComponents()
		// Classify each component as bipartite or not.
		bip := 0
		for c := 1; c <= k; c++ {
			var members []int
			for v := 1; v <= n; v++ {
				if comp[v] == c {
					members = append(members, v)
				}
			}
			sub, _ := g.InducedSubgraph(members)
			if ok, _ := sub.IsBipartite(); ok {
				bip++
			}
		}
		_, dcK := dc.ConnectedComponents()
		want := 2*bip + (k - bip)
		if dcK != want {
			t.Fatalf("mask %d: cc(DC)=%d, want %d", mask, dcK, want)
		}
		// And the decision identity used by the protocol.
		isBip, _ := g.IsBipartite()
		if (dcK == 2*k) != isBip {
			t.Fatalf("mask %d: identity fails", mask)
		}
	}
}

func TestSketchBipartitenessBasic(t *testing.T) {
	rng := gen.NewRand(700)
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"tree", gen.RandomTree(rng, 20), true},
		{"even cycle", gen.Cycle(12), true},
		{"odd cycle", gen.Cycle(11), false},
		{"grid", gen.Grid(4, 5), true},
		{"complete bipartite", gen.CompleteBipartite(6, 7), true},
		{"complete", gen.Complete(8), false},
		{"bipartite+odd component", bipartitePlusTriangle(), false},
		{"empty", graph.New(9), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sb := NewSketchBipartiteness(c.g.N(), 1234)
			got, _, err := engine.RunDecider(c.g, sb, engine.Serial{})
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("got %v, want %v", got, c.want)
			}
		})
	}
}

func bipartitePlusTriangle() *graph.Graph {
	g := graph.New(10)
	// Bipartite part: path 1-2-3-4.
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	// Odd part: triangle 5,6,7.
	g.AddEdge(5, 6)
	g.AddEdge(6, 7)
	g.AddEdge(5, 7)
	return g
}

func TestSketchBipartitenessSuccessRate(t *testing.T) {
	rng := gen.NewRand(701)
	ok, trials := 0, 40
	for trial := 0; trial < trials; trial++ {
		var g *graph.Graph
		want := trial%2 == 0
		if want {
			g = gen.RandomBipartite(rng, 10, 10, 0.3)
		} else {
			g = gen.ConnectedGnp(rng, 20, 0.3) // dense: almost surely odd cycle
			if b, _ := g.IsBipartite(); b {
				want = true
			}
		}
		sb := NewSketchBipartiteness(g.N(), int64(3000+trial))
		got, _, err := engine.RunDecider(g, sb, engine.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			ok++
		}
	}
	if ok < trials*95/100 {
		t.Errorf("success %d/%d below 95%%", ok, trials)
	}
}

func TestSketchBipartitenessMessageBits(t *testing.T) {
	n := 16
	sb := NewSketchBipartiteness(n, 9)
	g := gen.Cycle(n)
	tr := engine.LocalPhase(g, sb, engine.Serial{})
	want := sb.MessageBits(n)
	for i, m := range tr.Messages {
		if m.Len() != want {
			t.Errorf("message %d: %d bits, want %d", i+1, m.Len(), want)
		}
	}
	// Message = one G-sketch + two DC-sketches + framing (≤ ~100 bits).
	scG := &SketchConnectivity{Params: sb.ParamsG}
	scDC := &SketchConnectivity{Params: sb.ParamsDC}
	sum := scG.MessageBits(n) + 2*scDC.MessageBits(2*n)
	if want < sum || want > sum+120 {
		t.Errorf("bipartiteness message %d bits, components sum to %d", want, sum)
	}
}

func TestDoubleCoverStructure(t *testing.T) {
	g := gen.Cycle(5)
	dc := DoubleCover(g)
	if dc.N() != 10 || dc.M() != 2*g.M() {
		t.Fatalf("dc n=%d m=%d", dc.N(), dc.M())
	}
	// DC of an odd cycle C5 is the single cycle C10 — connected.
	if !dc.IsConnected() {
		t.Error("DC(C5) should be connected (C10)")
	}
	if ok, _ := dc.IsBipartite(); !ok {
		t.Error("double covers are always bipartite")
	}
	// DC of an even cycle is two disjoint copies.
	dc2 := DoubleCover(gen.Cycle(6))
	if _, k := dc2.ConnectedComponents(); k != 2 {
		t.Error("DC(C6) should have 2 components")
	}
}
