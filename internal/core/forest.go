package core

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
	"refereenet/internal/numeric"
)

// ForestProtocol is the paper's warm-up protocol (§III.A, the k = 1 case):
// each vertex v sends the triple
//
//	(ID(v), deg_T(v), Σ_{w∈N(v)} ID(w))
//
// in under 4·log n bits, and the referee reconstructs the forest by
// repeatedly pruning a leaf — the sum field of a degree-1 vertex *is* its
// unique neighbor's identifier, so no algebra is needed.
//
// Its message is bit for bit DegeneracyProtocol{K: 1}'s, and its referee
// is that protocol's peel at k = 1 (TestForestMessageIsDegeneracy1 pins
// the equality the shared peel rests on). It keeps its own name, its
// allocation-free local phase (one word sum, no accumulator) and its
// VectorKernel, and its transcript realizes the "< 4 log n bits" claim
// exactly.
type ForestProtocol struct{}

// Name implements engine.Named.
func (ForestProtocol) Name() string { return "forest" }

// MessageBits returns the exact message size on n-node graphs.
func (ForestProtocol) MessageBits(n int) int {
	return 2*bits.Width(n) + numeric.MaxPowerSumBits(n, 1)
}

// LocalMessage sends (ID, degree, sum of neighbor IDs) at fixed widths.
func (p ForestProtocol) LocalMessage(n, id int, nbrs []int) bits.String {
	var out bits.Writer
	p.AppendLocalMessage(&out, n, id, nbrs)
	return out.String()
}

// AppendLocalMessage implements engine.BufferedLocal: the same message,
// written into a caller-owned writer so batch runs allocate nothing.
func (ForestProtocol) AppendLocalMessage(out *bits.Writer, n, id int, nbrs []int) {
	w := bits.Width(n)
	sumW := numeric.MaxPowerSumBits(n, 1)
	sum := uint64(0)
	for _, x := range nbrs {
		sum += uint64(x)
	}
	out.WriteUint(uint64(id), w)
	out.WriteUint(uint64(len(nbrs)), w)
	out.WriteUint(sum, sumW)
}

// VectorKernel implements engine.VectorLocal. The message is three
// fixed-width fields — ID, degree and neighbor-ID sum at widths determined
// by n alone — so batch statistics vectorize as pure width algebra, the
// same ConstWidthKernel the strawmen use. ForestProtocol is a
// Reconstructor, not a Decider, so there is never a verdict to vectorize
// and the decide flag is moot (the lane-parallel acyclicity verdict lives
// in oracle-forest's Accept kernel).
func (p ForestProtocol) VectorKernel(bool) lanes.Kernel {
	return lanes.ConstWidthKernel(p.MessageBits)
}

// Reconstruct prunes leaves: a degree-1 vertex's sum field names its
// neighbor; remove the leaf and update the neighbor's (degree, sum). The
// message is DegeneracyProtocol{K: 1}'s bit for bit, so this is that
// protocol's peel at k = 1, whose decoder reads a singleton straight off
// its sum. It reports an error if the messages are inconsistent with a
// forest — which is exactly how the referee "decides whether the graph
// contains a cycle".
func (p ForestProtocol) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	return peel(p, n, 1, false, nil, msgs, "core: leaf pruning stuck with %[1]d vertices: the graph contains a cycle: %[3]w")
}

var (
	_ engine.Reconstructor = ForestProtocol{}
	_ engine.Named         = ForestProtocol{}
)

// BoundedDegreeProtocol is the protocol from the paper's footnote 1: when
// the network has maximum degree ≤ D, every node simply sends its entire
// neighbor list ((D+1)·⌈log₂(n+1)⌉ bits) and the referee rebuilds the graph
// verbatim. It is the baseline the degeneracy protocol strictly generalizes:
// a star has unbounded degree but degeneracy 1.
type BoundedDegreeProtocol struct{ D int }

// Name implements engine.Named.
func (p BoundedDegreeProtocol) Name() string { return fmt.Sprintf("bounded-degree[d=%d]", p.D) }

// LocalMessage sends deg(v) then the raw neighbor list. Nodes of degree
// greater than D truncate — the referee will detect the inconsistency.
func (p BoundedDegreeProtocol) LocalMessage(n, id int, nbrs []int) bits.String {
	var out bits.Writer
	p.AppendLocalMessage(&out, n, id, nbrs)
	return out.String()
}

// AppendLocalMessage implements engine.BufferedLocal.
func (p BoundedDegreeProtocol) AppendLocalMessage(out *bits.Writer, n, id int, nbrs []int) {
	w := bits.Width(n)
	d := len(nbrs)
	if d > p.D {
		d = p.D
	}
	out.WriteUint(uint64(len(nbrs)), w)
	for _, x := range nbrs[:d] {
		out.WriteUint(uint64(x), w)
	}
}

// Reconstruct rebuilds the graph and errors when any node exceeded degree D
// or the endpoints disagree about an edge.
func (p BoundedDegreeProtocol) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	w := bits.Width(n)
	adj := make([][]int, n+1)
	for i, m := range msgs {
		r := bits.NewReader(m)
		d64, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i+1, err)
		}
		if int(d64) > p.D {
			return nil, fmt.Errorf("core: vertex %d has degree %d > %d", i+1, d64, p.D)
		}
		for j := 0; j < int(d64); j++ {
			x, err := r.ReadUint(w)
			if err != nil {
				return nil, fmt.Errorf("core: message %d entry %d: %w", i+1, j, err)
			}
			if x < 1 || int(x) > n || int(x) == i+1 {
				return nil, fmt.Errorf("core: vertex %d lists invalid neighbor %d", i+1, x)
			}
			adj[i+1] = append(adj[i+1], int(x))
		}
		if r.Remaining() != 0 {
			return nil, fmt.Errorf("core: message %d has trailing bits", i+1)
		}
	}
	h := graph.New(n)
	for v := 1; v <= n; v++ {
		for _, u := range adj[v] {
			if v < u {
				if err := h.AddEdgeErr(v, u); err != nil {
					return nil, err
				}
			}
		}
	}
	// Symmetry check: every listed edge must be confirmed by both endpoints.
	for v := 1; v <= n; v++ {
		for _, u := range adj[v] {
			if !h.HasEdge(v, u) {
				return nil, fmt.Errorf("core: edge {%d,%d} asserted by one endpoint only", v, u)
			}
		}
		if h.Degree(v) != len(adj[v]) {
			return nil, fmt.Errorf("core: vertex %d degree mismatch", v)
		}
	}
	return h, nil
}

var _ engine.Reconstructor = BoundedDegreeProtocol{}
