package sketch

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
)

// SketchBipartiteness probes the paper's second open question ("whether one
// can find a frugal one-round protocol deciding if a graph is bipartite")
// in the public-randomness extension: one round, polylog(n)-bit messages.
//
// It reduces bipartiteness to connectivity counting on the bipartite double
// cover DC(G): each vertex v splits into v⁺ (ID v) and v⁻ (ID n+v), and
// every edge {u,v} of G becomes {u⁺,v⁻} and {u⁻,v⁺}. A connected component
// of G lifts to ONE component of DC(G) when it contains an odd cycle and to
// TWO when it is bipartite, so
//
//	G bipartite  ⟺  #cc(DC(G)) = 2·#cc(G).
//
// Both counts are estimated from ℓ₀-sketches: node v sends its sketch in G
// plus the sketches of v⁺ and v⁻ in DC(G) — all computable from (n, v,
// N(v)) and the public seed, so this is a legitimate one-round protocol of
// Definition 1 (with shared coins). The referee recovers spanning forests
// with Borůvka and compares component counts; errors are one-sided with
// small probability (a failed sample can only over-count components).
type SketchBipartiteness struct {
	// ParamsG sizes the sketches over G (n vertices); ParamsDC over the
	// double cover (2n vertices). Use NewSketchBipartiteness for defaults.
	ParamsG  Params
	ParamsDC Params
}

// NewSketchBipartiteness returns the protocol with default parameters for
// graphs on n vertices.
func NewSketchBipartiteness(n int, seed int64) *SketchBipartiteness {
	return &SketchBipartiteness{
		ParamsG:  DefaultParams(n, seed),
		ParamsDC: DefaultParams(2*n, seed+1),
	}
}

// Name implements engine.Named.
func (sb *SketchBipartiteness) Name() string { return "sketch-bipartiteness" }

// MessageBits returns the exact per-node message size on n-node graphs.
func (sb *SketchBipartiteness) MessageBits(n int) int {
	scG := &SketchConnectivity{Params: sb.ParamsG}
	scDC := &SketchConnectivity{Params: sb.ParamsDC}
	partG := scG.MessageBits(n)
	partDC := scDC.MessageBits(2 * n)
	framed := bits.EncodeParts(
		make1s(partG), make1s(partDC), make1s(partDC),
	)
	return framed.Len()
}

func make1s(n int) bits.String {
	var w bits.Writer
	for i := 0; i < n; i++ {
		w.WriteBit(1)
	}
	return w.String()
}

// LocalMessage sends the framed triple (sketch of v in G, sketch of v⁺ in
// DC, sketch of v⁻ in DC). All three are pure functions of (n, id, nbrs).
func (sb *SketchBipartiteness) LocalMessage(n, id int, nbrs []int) bits.String {
	scG := &SketchConnectivity{Params: sb.ParamsG}
	mG := scG.LocalMessage(n, id, nbrs)

	// v⁺ = id has DC-neighbors {n+w : w ∈ N(v)};
	// v⁻ = n+id has DC-neighbors N(v).
	up := make([]int, len(nbrs))
	for i, w := range nbrs {
		up[i] = n + w
	}
	scDC := &SketchConnectivity{Params: sb.ParamsDC}
	mUp := scDC.LocalMessage(2*n, id, up)
	mDown := scDC.LocalMessage(2*n, n+id, nbrs)
	return bits.EncodeParts(mG, mUp, mDown)
}

// Decide recovers forests of G and DC(G) from the sketches and compares
// component counts.
func (sb *SketchBipartiteness) Decide(n int, msgs []bits.String) (bool, error) {
	if len(msgs) != n {
		return false, fmt.Errorf("sketch: %d messages for n=%d", len(msgs), n)
	}
	if n == 0 {
		return true, nil
	}
	msgsG := make([]bits.String, n)
	msgsDC := make([]bits.String, 2*n)
	for i, m := range msgs {
		parts, err := bits.DecodeParts(m, 3)
		if err != nil {
			return false, fmt.Errorf("sketch: node %d: %w", i+1, err)
		}
		msgsG[i] = parts[0]
		msgsDC[i] = parts[1]
		msgsDC[n+i] = parts[2]
	}
	scG := &SketchConnectivity{Params: sb.ParamsG}
	forestG, err := scG.SpanningForest(n, msgsG)
	if err != nil {
		return false, err
	}
	scDC := &SketchConnectivity{Params: sb.ParamsDC}
	forestDC, err := scDC.SpanningForest(2*n, msgsDC)
	if err != nil {
		return false, err
	}
	ccG := n - len(forestG)
	ccDC := 2*n - len(forestDC)
	return ccDC == 2*ccG, nil
}

// DoubleCover builds DC(G) explicitly — used by tests to validate the
// reduction identity #cc(DC) = 2·#bipartite-components + #odd-components.
func DoubleCover(g *graph.Graph) *graph.Graph {
	n := g.N()
	dc := graph.New(2 * n)
	for _, e := range g.Edges() {
		dc.AddEdge(e[0], n+e[1])
		dc.AddEdge(n+e[0], e[1])
	}
	return dc
}

var (
	_ engine.Decider = (*SketchBipartiteness)(nil)
	_ engine.Named   = (*SketchBipartiteness)(nil)
)
