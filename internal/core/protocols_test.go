package core

import (
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func TestForestReconstruct(t *testing.T) {
	rng := gen.NewRand(200)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(5)},
		{"single-edge", graph.MustFromEdges(2, [][2]int{{1, 2}})},
		{"path", gen.Path(10)},
		{"star", gen.Star(12)},
		{"tree", gen.RandomTree(rng, 50)},
		{"forest", gen.RandomForest(rng, 40, 4)},
		{"caterpillar", gen.Caterpillar(6, 10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := reconstructAndCheck(t, c.g, ForestProtocol{})
			// Paper: "clearly can be encoded using less than 4·log n bits".
			n := c.g.N()
			if n >= 2 {
				limit := 4 * log2ceilTest(n+1)
				if tr.MaxBits() > limit {
					t.Errorf("message %d bits exceeds 4⌈log(n+1)⌉ = %d", tr.MaxBits(), limit)
				}
			}
		})
	}
}

func TestForestDetectsCycle(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Cycle(5), gen.Complete(4), gen.Grid(3, 3)} {
		_, _, err := engine.RunReconstructor(g, ForestProtocol{}, engine.Serial{})
		if err == nil {
			t.Errorf("forest protocol accepted cyclic graph %v", g)
		}
	}
}

func TestForestMatchesDegeneracy1(t *testing.T) {
	// ForestProtocol and DegeneracyProtocol{K:1} reconstruct the same graphs.
	rng := gen.NewRand(201)
	for trial := 0; trial < 10; trial++ {
		g := gen.RandomForest(rng, 25, 1+trial%4)
		a := reconstructAndCheck(t, g, ForestProtocol{})
		b := reconstructAndCheck(t, g, &DegeneracyProtocol{K: 1})
		if a.MaxBits() > b.MaxBits() {
			t.Errorf("forest encoding (%d bits) larger than degeneracy k=1 (%d bits)", a.MaxBits(), b.MaxBits())
		}
	}
}

func TestBoundedDegreeReconstruct(t *testing.T) {
	rng := gen.NewRand(202)
	cases := []struct {
		g *graph.Graph
		d int
	}{
		{gen.Cycle(10), 2},
		{gen.Grid(4, 5), 4},
		{gen.Hypercube(4), 4},
		{gen.Gnp(rng, 20, 0.15), 19},
		{gen.Torus(4, 4), 4},
	}
	for _, c := range cases {
		if c.g.MaxDegree() > c.d {
			t.Fatalf("test bug: max degree %d > %d", c.g.MaxDegree(), c.d)
		}
		reconstructAndCheck(t, c.g, BoundedDegreeProtocol{D: c.d})
	}
}

func TestBoundedDegreeRejectsHighDegree(t *testing.T) {
	g := gen.Star(10) // center has degree 9
	_, _, err := engine.RunReconstructor(g, BoundedDegreeProtocol{D: 3}, engine.Serial{})
	if err == nil {
		t.Error("expected rejection when a vertex exceeds the degree bound")
	}
}

func TestGeneralizedDegeneracyOnSparse(t *testing.T) {
	// Plain sparse graphs still work (the direct side of the disjunction).
	rng := gen.NewRand(203)
	g := gen.KTree(rng, 18, 2)
	reconstructAndCheck(t, g, &GeneralizedDegeneracyProtocol{K: 2})
}

func TestGeneralizedDegeneracyOnDense(t *testing.T) {
	// Complements of sparse graphs: plain degeneracy-k rejects, generalized
	// reconstructs.
	rng := gen.NewRand(204)
	for trial := 0; trial < 5; trial++ {
		g := gen.RandomTree(rng, 16).Complement()
		d, _ := g.Degeneracy()
		if d <= 1 {
			t.Fatal("test bug: complement should be dense")
		}
		if _, _, err := engine.RunReconstructor(g, &DegeneracyProtocol{K: 1}, engine.Serial{}); err == nil {
			t.Fatal("plain k=1 should fail on a dense complement")
		}
		reconstructAndCheck(t, g, &GeneralizedDegeneracyProtocol{K: 1})
	}
}

func TestGeneralizedDegeneracyMixed(t *testing.T) {
	// K5 ∪ complement-of-K5 style: complete graph is generalized-degeneracy 0.
	g := gen.Complete(8)
	reconstructAndCheck(t, g, &GeneralizedDegeneracyProtocol{K: 0})
	// C5 requires k=2 (degree 2 and co-degree 2 everywhere).
	c5 := gen.Cycle(5)
	if _, _, err := engine.RunReconstructor(c5, &GeneralizedDegeneracyProtocol{K: 1}, engine.Serial{}); err == nil {
		t.Error("C5 should be rejected at generalized k=1")
	}
	reconstructAndCheck(t, c5, &GeneralizedDegeneracyProtocol{K: 2})
}

func TestGeneralizedMessageTwiceAsBig(t *testing.T) {
	pPlain := &DegeneracyProtocol{K: 3}
	pGen := &GeneralizedDegeneracyProtocol{K: 3}
	for _, n := range []int{8, 64, 512} {
		plain, gener := pPlain.MessageBits(n), pGen.MessageBits(n)
		// gener = plain + k extra power-sum fields.
		if gener <= plain || gener > 2*plain {
			t.Errorf("n=%d: generalized %d bits vs plain %d", n, gener, plain)
		}
	}
}

func TestGeneralizedExhaustiveSmall(t *testing.T) {
	// All graphs on 4 vertices with generalized degeneracy ≤ 1 reconstruct;
	// compare against the greedy witness finder in the graph package.
	n := 4
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		_, ok := g.GeneralizedDegeneracyOrder(1)
		h, _, err := engine.RunReconstructor(g, &GeneralizedDegeneracyProtocol{K: 1}, engine.Serial{})
		if ok {
			if err != nil {
				t.Fatalf("mask %d: witness exists but protocol failed: %v", mask, err)
			}
			if !h.Equal(g) {
				t.Fatalf("mask %d: wrong reconstruction", mask)
			}
		} else if err == nil {
			t.Fatalf("mask %d: no witness but protocol succeeded", mask)
		}
	}
}

func TestOracleDeciders(t *testing.T) {
	rng := gen.NewRand(205)
	for trial := 0; trial < 20; trial++ {
		g := gen.Gnp(rng, 9, 0.35)
		cases := []struct {
			o    *OracleDecider
			want bool
		}{
			{NewSquareOracle(), g.HasSquare()},
			{NewTriangleOracle(), g.HasTriangle()},
			{NewDiameterOracle(3), g.DiameterAtMost(3)},
			{NewConnectivityOracle(), g.IsConnected()},
		}
		for _, c := range cases {
			got, _, err := engine.RunDecider(g, c.o, engine.Serial{})
			if err != nil {
				t.Fatalf("%s: %v", c.o.Name(), err)
			}
			if got != c.want {
				t.Fatalf("%s on %v: got %v, want %v", c.o.Name(), g, got, c.want)
			}
		}
	}
}

func TestOracleRejectsAsymmetricRows(t *testing.T) {
	o := NewSquareOracle()
	// Node 1 claims an edge to 2; node 2 claims nothing.
	m1 := o.LocalMessage(3, 1, []int{2})
	m2 := o.LocalMessage(3, 2, nil)
	m3 := o.LocalMessage(3, 3, nil)
	if _, err := o.Decide(3, []bits.String{m1, m2, m3}); err == nil {
		t.Error("expected symmetry error")
	}
}

func TestOracleReconstructor(t *testing.T) {
	rng := gen.NewRand(206)
	g := gen.Gnp(rng, 15, 0.4)
	reconstructAndCheck(t, g, OracleReconstructor{})
}

func TestProtocolNames(t *testing.T) {
	cases := []struct {
		p    engine.Named
		want string
	}{
		{ForestProtocol{}, "forest"},
		{BoundedDegreeProtocol{D: 3}, "bounded-degree[d=3]"},
		{&GeneralizedDegeneracyProtocol{K: 2}, "generalized-degeneracy[k=2]"},
		{&AdaptiveReconstruction{}, "adaptive-degeneracy"},
		{NewSquareOracle(), "oracle:square"},
		{OracleReconstructor{}, "oracle:reconstruct"},
		{&SquareReduction{}, "reduction:square"},
		{&DiameterReduction{}, "reduction:diameter"},
		{&TriangleReduction{}, "reduction:triangle"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestForestMessageBits(t *testing.T) {
	// MessageBits must equal the actual wire size everywhere.
	p := ForestProtocol{}
	for _, n := range []int{2, 10, 100, 1000} {
		m := p.LocalMessage(n, 1, []int{2})
		if m.Len() != p.MessageBits(n) {
			t.Errorf("n=%d: message %d bits, MessageBits says %d", n, m.Len(), p.MessageBits(n))
		}
	}
}

func TestCapacityHelpers(t *testing.T) {
	if CapacityBits(10, 7) != 70 {
		t.Error("CapacityBits wrong")
	}
	tr := &engine.Transcript{N: 3, Messages: []bits.String{bits.FromBits(1, 0), bits.FromBits(1)}}
	if TranscriptCapacity(tr) != 3 {
		t.Error("TranscriptCapacity wrong")
	}
}

func TestGadgetPanicsOnBadPair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for s == t")
		}
	}()
	TriangleGadget(gen.Path(4), 2, 2)
}

func TestOracleRejectsWrongRowLength(t *testing.T) {
	o := NewTriangleOracle()
	msgs := []bits.String{
		o.LocalMessage(3, 1, nil),
		o.LocalMessage(3, 2, nil),
		bits.FromBits(0, 0), // 2 bits instead of 3
	}
	if _, err := o.Decide(3, msgs); err == nil {
		t.Error("short row should fail")
	}
	// Self-loop bit set.
	bad := []bits.String{
		bits.FromBits(1, 0, 0), // row 1 claims edge to itself
		o.LocalMessage(3, 2, nil),
		o.LocalMessage(3, 3, nil),
	}
	if _, err := o.Decide(3, bad); err == nil {
		t.Error("self-loop row should fail")
	}
}

func TestForestRejectsWrongCount(t *testing.T) {
	p := ForestProtocol{}
	g := gen.Path(4)
	tr := engine.LocalPhase(g, p, engine.Serial{})
	if _, err := p.Reconstruct(5, tr.Messages); err == nil {
		t.Error("message count mismatch should fail")
	}
}

func TestLookupDecoderDegreeTooLarge(t *testing.T) {
	ld, err := NewLookupDecoder(10, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Messages from a degree-3 vertex cannot be decoded with a k=2 table.
	p := &DegeneracyProtocol{K: 2, Decoder: ld}
	g := gen.Star(5) // center has degree 4 > 2... but leaves prune first.
	// Star has degeneracy 1, so pruning works; use K4 to force failure.
	_ = g
	k4 := gen.Complete(4)
	tr := engine.LocalPhase(k4, p, engine.Serial{})
	if _, err := p.Reconstruct(4, tr.Messages); err == nil {
		t.Error("K4 with k=2 should fail")
	}
}
