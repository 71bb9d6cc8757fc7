package core

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/numeric"
)

// GeneralizedDegeneracyProtocol implements the extension sketched at the end
// of Section III: graphs of "generalized degeneracy k" admit an elimination
// order where each removed vertex has degree ≤ k in the remaining graph *or*
// in its complement. Encoding both the neighborhood and the co-neighborhood
// power sums lets the referee prune on whichever side is small, so dense
// graphs (e.g. complements of forests) become reconstructible too.
//
// Message of node v: ID, deg, the K neighborhood power sums, and the K
// co-neighborhood power sums (over {1..n}\N(v)\{v}) — about twice the
// DegeneracyProtocol message, still O(K² log n).
type GeneralizedDegeneracyProtocol struct {
	K       int
	Decoder NeighborhoodDecoder // nil means NewtonDecoder{}
}

// Name implements engine.Named.
func (p *GeneralizedDegeneracyProtocol) Name() string {
	return fmt.Sprintf("generalized-degeneracy[k=%d]", p.K)
}

// MessageBits returns the exact message size on n-node graphs.
func (p *GeneralizedDegeneracyProtocol) MessageBits(n int) int {
	w := bits.Width(n)
	total := 2 * w
	for q := 1; q <= p.K; q++ {
		total += 2 * numeric.MaxPowerSumBits(n, q)
	}
	return total
}

// LocalMessage encodes (ID, deg, b(v), b̄(v)) at fixed public widths.
func (p *GeneralizedDegeneracyProtocol) LocalMessage(n, id int, nbrs []int) bits.String {
	var out bits.Writer
	p.AppendLocalMessage(&out, n, id, nbrs)
	return out.String()
}

// AppendLocalMessage implements engine.BufferedLocal. The co-neighborhood
// {1..n} \ N(v) \ {v} is computable locally since every node knows n; its
// sums are those of 1..n with v and N(v) removed again, so no set is built.
func (p *GeneralizedDegeneracyProtocol) AppendLocalMessage(out *bits.Writer, n, id int, nbrs []int) {
	w := bits.Width(n)
	out.WriteUint(uint64(id), w)
	out.WriteUint(uint64(len(nbrs)), w)
	var acc, co numeric.PowerSumAccumulator
	acc.Reset(n, p.K)
	co.Reset(n, p.K)
	for x := 1; x <= n; x++ {
		co.Add(x)
	}
	co.Remove(id)
	co.Remove(nbrs...)
	acc.Add(nbrs...)
	for q := 1; q <= p.K; q++ {
		width := numeric.MaxPowerSumBits(n, q)
		out.WriteLimbsWidth(acc.Sum(q), width)
		out.WriteLimbsWidth(co.Sum(q), width)
	}
}

// Reconstruct prunes a vertex whose remaining degree is ≤ K (decode its
// neighbors) or whose remaining co-degree is ≤ K (decode its non-neighbors;
// its neighbors are the rest of the remaining vertices). Either way, the
// records of all remaining vertices are updated to reflect the removal: it
// is the degeneracy peel with the co-neighborhood side switched on.
func (p *GeneralizedDegeneracyProtocol) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	return peel(p, n, p.K, true, p.Decoder, msgs, "core: generalized pruning stuck with %[1]d vertices, k=%[2]d: %[3]w")
}

var (
	_ engine.Reconstructor = (*GeneralizedDegeneracyProtocol)(nil)
	_ engine.BufferedLocal = (*GeneralizedDegeneracyProtocol)(nil)
	_ engine.Named         = (*GeneralizedDegeneracyProtocol)(nil)
)
