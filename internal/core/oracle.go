package core

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// OracleDecider is the hypothetical protocol Γ that the paper's reduction
// theorems quantify over. It is exact but *not frugal*: every node ships its
// whole adjacency row (n bits), the referee rebuilds G and evaluates the
// predicate. Plugging it into the reductions validates the constructions of
// Theorems 1–3 end to end; plugging a frugal strawman in instead produces
// wrong reconstructions — which is the theorem.
type OracleDecider struct {
	Label string
	Pred  func(*graph.Graph) bool
	// Accept, when non-nil, is the lane-parallel form of Pred: per-lane
	// accept bits over a transposed 64-graph block. Every oracle in this
	// package sets it (triangle, square, diameter, connectivity, forest); an
	// oracle without one declines VectorKernel and runs scalar.
	Accept func(*lanes.Block) uint64
}

// Name implements engine.Named.
func (o *OracleDecider) Name() string { return "oracle:" + o.Label }

// LocalMessage encodes the incidence row of node id: bit j-1 set iff j is a
// neighbor. Exactly n bits, a pure function of (n, id, nbrs).
func (o *OracleDecider) LocalMessage(n, id int, nbrs []int) bits.String {
	var w bits.Writer
	o.AppendLocalMessage(&w, n, id, nbrs)
	return w.String()
}

// AppendLocalMessage implements engine.BufferedLocal: a single merge walk
// over the (ascending) neighbor list, no scratch.
func (o *OracleDecider) AppendLocalMessage(w *bits.Writer, n, id int, nbrs []int) {
	i := 0
	for j := 1; j <= n; j++ {
		if i < len(nbrs) && nbrs[i] == j {
			w.WriteBit(1)
			i++
		} else {
			w.WriteBit(0)
		}
	}
}

// VectorKernel implements engine.VectorLocal. The message side is exact by
// construction — every node ships exactly n row bits — and the verdict side
// is the Accept kernel when present. Decide on self-produced rows cannot
// error (rows are symmetric by construction), so the kernel's
// Accepted/Rejected partition of the live lanes matches the scalar loop
// bit for bit. Oracles without an Accept kernel return nil under decide,
// declining vectorization rather than approximating it.
func (o *OracleDecider) VectorKernel(decide bool) lanes.Kernel {
	if !decide {
		return lanes.ConstWidthKernel(func(n int) int { return n })
	}
	if o.Accept == nil {
		return nil
	}
	return lanes.DecideKernel(func(n int) int { return n }, o.Accept, true)
}

// Decide rebuilds the graph from the rows and applies the predicate. It
// rejects inconsistent rows (an edge asserted by one endpoint only).
func (o *OracleDecider) Decide(n int, msgs []bits.String) (bool, error) {
	g, err := decodeRows(n, msgs)
	if err != nil {
		return false, err
	}
	return o.Pred(g), nil
}

// decodeRows turns n adjacency rows into a graph, checking symmetry.
func decodeRows(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	g := graph.New(n)
	for i, m := range msgs {
		if m.Len() != n {
			return nil, fmt.Errorf("core: row %d has %d bits, want %d", i+1, m.Len(), n)
		}
		for j := 1; j <= n; j++ {
			if m.Bit(j-1) == 1 {
				if j == i+1 {
					return nil, fmt.Errorf("core: row %d has a self-loop", i+1)
				}
				if j > i+1 {
					g.AddEdge(i+1, j)
				} else if !g.HasEdge(j, i+1) {
					return nil, fmt.Errorf("core: rows %d and %d disagree on edge", i+1, j)
				}
			} else if j < i+1 && g.HasEdge(j, i+1) {
				return nil, fmt.Errorf("core: rows %d and %d disagree on edge", i+1, j)
			}
		}
	}
	return g, nil
}

// The predicates the paper proves hard, as oracle deciders.

// NewSquareOracle decides "G contains C4 as a subgraph" (Theorem 1).
func NewSquareOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "square",
		Pred:   (*graph.Graph).HasSquare,
		Accept: (*lanes.Block).Squares,
	}
}

// NewTriangleOracle decides "G contains a triangle" (Theorem 3).
func NewTriangleOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "triangle",
		Pred:   (*graph.Graph).HasTriangle,
		Accept: (*lanes.Block).Triangles,
	}
}

// NewDiameterOracle decides "diam(G) ≤ d" (Theorem 2 uses d = 3).
func NewDiameterOracle(d int) *OracleDecider {
	return &OracleDecider{
		Label:  fmt.Sprintf("diameter<=%d", d),
		Pred:   func(g *graph.Graph) bool { return g.DiameterAtMost(d) },
		Accept: func(b *lanes.Block) uint64 { return b.DiameterAtMost(d) },
	}
}

// NewConnectivityOracle decides "G is connected" (the paper's main open
// question; the oracle shows the reductions framework applies to it too).
func NewConnectivityOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "connected",
		Pred:   (*graph.Graph).IsConnected,
		Accept: (*lanes.Block).Connected,
	}
}

// NewForestOracle decides "G is a forest". ForestProtocol reconstructs
// forests frugally but is not a Decider; this oracle gives sweeps a yes/no
// acyclicity tally (labelled totals cross-check against OEIS A001858).
func NewForestOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "forest",
		Pred:   (*graph.Graph).IsForest,
		Accept: (*lanes.Block).Forests,
	}
}

// OracleReconstructor ships adjacency rows and returns the graph itself —
// the trivial non-frugal reconstructor, Lemma 1's upper-bound foil.
type OracleReconstructor struct{}

// Name implements engine.Named.
func (OracleReconstructor) Name() string { return "oracle:reconstruct" }

// LocalMessage is the adjacency row of node id.
func (OracleReconstructor) LocalMessage(n, id int, nbrs []int) bits.String {
	return (&OracleDecider{}).LocalMessage(n, id, nbrs)
}

// Reconstruct rebuilds the graph from the rows.
func (OracleReconstructor) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	return decodeRows(n, msgs)
}

var (
	_ engine.Decider       = (*OracleDecider)(nil)
	_ engine.Reconstructor = OracleReconstructor{}
)
