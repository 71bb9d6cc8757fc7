package sketch

import (
	"testing"

	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

// --- Partition connectivity (paper §IV remark) ---

func TestPartitionConnectivityConnected(t *testing.T) {
	rng := gen.NewRand(400)
	for _, k := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 5; trial++ {
			g := gen.ConnectedGnp(rng, 40, 0.08)
			pc := NewIntervalPartition(40, k)
			conn, _, err := pc.Run(g)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if !conn {
				t.Fatalf("k=%d: connected graph declared disconnected", k)
			}
		}
	}
}

func TestPartitionConnectivityDisconnected(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		g := gen.DisjointCliques(3, 5) // 15 vertices, 3 components
		pc := NewIntervalPartition(15, k)
		conn, _, err := pc.Run(g)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if conn {
			t.Fatalf("k=%d: disconnected graph declared connected", k)
		}
	}
}

func TestPartitionConnectivityBridge(t *testing.T) {
	// The barbell is the adversarial case: a single cross edge carries all
	// connectivity. Partition the two cliques into different parts.
	g := gen.BarbellWithBridge(8) // vertices 1..8, 9..16, bridge 8-9
	pc := NewIntervalPartition(16, 2)
	conn, _, err := pc.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !conn {
		t.Fatal("bridge graph declared disconnected")
	}
	g.RemoveEdge(8, 9)
	conn, _, err = pc.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if conn {
		t.Fatal("bridgeless barbell declared connected")
	}
}

func TestPartitionConnectivityExhaustive(t *testing.T) {
	// All graphs on 5 vertices, all k: exact agreement with IsConnected.
	n := 5
	total := n * (n - 1) / 2
	for _, k := range []int{1, 2, 3, 5} {
		pc := NewIntervalPartition(n, k)
		for mask := uint64(0); mask < 1<<uint(total); mask++ {
			g := graph.FromEdgeMask(n, mask)
			conn, _, err := pc.Run(g)
			if err != nil {
				t.Fatalf("k=%d mask=%d: %v", k, mask, err)
			}
			if conn != g.IsConnected() {
				t.Fatalf("k=%d mask=%d: got %v, want %v", k, mask, conn, g.IsConnected())
			}
		}
	}
}

func TestPartitionBitsBudget(t *testing.T) {
	// Max bits per node must equal exactly K·⌈log₂(n+1)⌉.
	rng := gen.NewRand(401)
	for _, k := range []int{1, 2, 4, 8, 16} {
		g := gen.ConnectedGnp(rng, 64, 0.1)
		pc := NewIntervalPartition(64, k)
		_, maxBits, err := pc.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if maxBits != pc.MessageBits(64) {
			t.Errorf("k=%d: maxBits=%d, want %d", k, maxBits, pc.MessageBits(64))
		}
	}
}

func TestIntervalPartitionShape(t *testing.T) {
	pc := NewIntervalPartition(10, 3)
	seen := map[int]int{}
	for v := 1; v <= 10; v++ {
		p := pc.PartOf[v]
		if p < 1 || p > 3 {
			t.Fatalf("vertex %d in part %d", v, p)
		}
		seen[p]++
	}
	if len(seen) != 3 {
		t.Errorf("parts used: %v", seen)
	}
}

// --- ℓ₀-sketch connectivity ---

func TestSketchConnectivityConnected(t *testing.T) {
	rng := gen.NewRand(402)
	for trial := 0; trial < 8; trial++ {
		g := gen.ConnectedGnp(rng, 24, 0.12)
		sc := NewSketchConnectivity(24, int64(500+trial))
		conn, _, err := engine.RunDecider(g, sc, engine.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		if !conn {
			t.Fatalf("trial %d: connected graph declared disconnected", trial)
		}
	}
}

func TestSketchConnectivityDisconnected(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := gen.DisjointCliques(2, 8)
		sc := NewSketchConnectivity(16, int64(600+trial))
		conn, _, err := engine.RunDecider(g, sc, engine.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		if conn {
			t.Fatalf("trial %d: disconnected graph declared connected", trial)
		}
	}
}

func TestSketchSpanningForestEdgesAreReal(t *testing.T) {
	rng := gen.NewRand(403)
	g := gen.ConnectedGnp(rng, 20, 0.15)
	sc := NewSketchConnectivity(20, 7)
	tr := engine.LocalPhase(g, sc, engine.Serial{})
	forest, err := sc.SpanningForest(20, tr.Messages)
	if err != nil {
		t.Fatal(err)
	}
	f := graph.New(20)
	for _, e := range forest {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("sampled edge %v does not exist in G", e)
		}
		f.AddEdge(e[0], e[1])
	}
	if !f.IsForest() {
		t.Fatal("recovered edges contain a cycle")
	}
	if len(forest) != 19 {
		t.Errorf("forest has %d edges, want 19 (connected, n=20)", len(forest))
	}
}

func TestSketchSuccessRate(t *testing.T) {
	// ≥ 95% of seeds must answer correctly on a mixed workload (DefaultParams
	// targets ≥99%, leave slack for small-sample noise).
	rng := gen.NewRand(404)
	n := 20
	okCount, trials := 0, 60
	for trial := 0; trial < trials; trial++ {
		var g *graph.Graph
		want := trial%2 == 0
		if want {
			g = gen.ConnectedGnp(rng, n, 0.15)
		} else {
			g = gen.DisjointCliques(2, n/2)
		}
		sc := NewSketchConnectivity(n, int64(9000+trial))
		got, _, err := engine.RunDecider(g, sc, engine.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			okCount++
		}
	}
	if okCount < trials*95/100 {
		t.Errorf("success rate %d/%d below 95%%", okCount, trials)
	}
}

func TestSketchMessageBitsExact(t *testing.T) {
	g := gen.Cycle(12)
	sc := NewSketchConnectivity(12, 3)
	tr := engine.LocalPhase(g, sc, engine.Serial{})
	want := sc.MessageBits(12)
	for i, m := range tr.Messages {
		if m.Len() != want {
			t.Errorf("message %d: %d bits, want %d", i+1, m.Len(), want)
		}
	}
}

func TestSketchMessagePolylog(t *testing.T) {
	// Message must grow no faster than ~log³ n: compare n=64 vs n=1024 —
	// tripling log n may grow the message by at most (log ratio)³ ≈ 4.6×.
	a := NewSketchConnectivity(64, 1).MessageBits(64)
	b := NewSketchConnectivity(1024, 1).MessageBits(1024)
	if b > a*8 {
		t.Errorf("message growth %d → %d faster than polylog budget", a, b)
	}
}

func TestSketchLinearity(t *testing.T) {
	// Summing the sketches of all vertices must cancel every edge: the total
	// boundary of V is empty, so every cell is zero.
	rng := gen.NewRand(405)
	g := gen.Gnp(rng, 12, 0.4)
	sc := NewSketchConnectivity(12, 11)
	tr := engine.LocalPhase(g, sc, engine.Serial{})
	sum := newNodeSketch(sc.Params)
	for i := range tr.Messages {
		s, err := parseSketch(12, sc.Params, tr.Messages[i])
		if err != nil {
			t.Fatal(err)
		}
		sum.merge(s)
	}
	for i, c := range sum.cells {
		if c.count != 0 || c.index != 0 || c.fp != 0 {
			t.Fatalf("cell %d nonzero after full cancellation: %+v", i, c)
		}
	}
}

func TestSketchSingleVertexAndEmpty(t *testing.T) {
	sc := NewSketchConnectivity(1, 1)
	conn, _, err := engine.RunDecider(graph.New(1), sc, engine.Serial{})
	if err != nil || !conn {
		t.Errorf("single vertex: conn=%v err=%v", conn, err)
	}
}

func TestSketchDeterministicGivenSeed(t *testing.T) {
	g := gen.Cycle(10)
	a := NewSketchConnectivity(10, 42)
	b := NewSketchConnectivity(10, 42)
	ta := engine.LocalPhase(g, a, engine.Serial{})
	tb := engine.LocalPhase(g, b, engine.Serial{})
	for i := range ta.Messages {
		if !ta.Messages[i].Equal(tb.Messages[i]) {
			t.Fatal("same seed produced different sketches")
		}
	}
}

func TestRandomPartitionConnectivity(t *testing.T) {
	// The coalition protocol is partition-independent: random assignments
	// must agree with the ground truth too.
	rng := gen.NewRand(406)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(30)
		k := 1 + rng.Intn(6)
		pc := NewRandomPartition(rng, n, k)
		var g *graph.Graph
		if trial%2 == 0 {
			g = gen.ConnectedGnp(rng, n, 0.15)
		} else {
			g = gen.Gnp(rng, n, 0.05)
		}
		got, bitsUsed, err := pc.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.IsConnected() {
			t.Fatalf("trial %d (n=%d k=%d): got %v, want %v", trial, n, k, got, g.IsConnected())
		}
		if bitsUsed != pc.MessageBits(n) {
			t.Fatalf("bits %d, want %d", bitsUsed, pc.MessageBits(n))
		}
	}
}

func TestRandomPartitionExhaustiveTiny(t *testing.T) {
	rng := gen.NewRand(407)
	n := 4
	total := n * (n - 1) / 2
	for _, k := range []int{2, 3} {
		pc := NewRandomPartition(rng, n, k)
		for mask := uint64(0); mask < 1<<uint(total); mask++ {
			g := graph.FromEdgeMask(n, mask)
			got, _, err := pc.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if got != g.IsConnected() {
				t.Fatalf("k=%d mask=%d: wrong verdict", k, mask)
			}
		}
	}
}
