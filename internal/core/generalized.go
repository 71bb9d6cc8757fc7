package core

import (
	"fmt"
	"math/big"

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

func (p *GeneralizedDegeneracyProtocol) decoder() NeighborhoodDecoder {
	if p.Decoder != nil {
		return p.Decoder
	}
	return NewtonDecoder{}
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

type generalizedRecord struct {
	id     int
	deg    int // degree among remaining vertices
	sums   []*big.Int
	coSums []*big.Int
}

// Reconstruct prunes a vertex whose remaining degree is ≤ K (decode its
// neighbors) or whose remaining co-degree is ≤ K (decode its non-neighbors;
// its neighbors are the rest of the remaining vertices). Either way, the
// records of all remaining vertices are updated to reflect the removal.
func (p *GeneralizedDegeneracyProtocol) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	w := bits.Width(n)
	recs := make([]*generalizedRecord, n+1)
	for i, m := range msgs {
		r := bits.NewReader(m)
		id64, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i+1, err)
		}
		if int(id64) != i+1 {
			return nil, fmt.Errorf("core: message %d claims ID %d", i+1, id64)
		}
		deg64, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i+1, err)
		}
		if deg64 >= uint64(n) {
			return nil, fmt.Errorf("core: message %d: degree %d out of range", i+1, deg64)
		}
		rec := &generalizedRecord{id: i + 1, deg: int(deg64), sums: make([]*big.Int, p.K), coSums: make([]*big.Int, p.K)}
		for q := 1; q <= p.K; q++ {
			width := numeric.MaxPowerSumBits(n, q)
			s, err := r.ReadBigIntWidth(width)
			if err != nil {
				return nil, fmt.Errorf("core: message %d: %w", i+1, err)
			}
			c, err := r.ReadBigIntWidth(width)
			if err != nil {
				return nil, fmt.Errorf("core: message %d: %w", i+1, err)
			}
			rec.sums[q-1], rec.coSums[q-1] = s, c
		}
		if r.Remaining() != 0 {
			return nil, fmt.Errorf("core: message %d has trailing bits", i+1)
		}
		recs[i+1] = rec
	}

	dec := p.decoder()
	h := graph.New(n)
	alive := make([]bool, n+1)
	for v := 1; v <= n; v++ {
		alive[v] = true
	}
	remaining := n
	xp := new(big.Int)
	for remaining > 0 {
		// Find any prunable vertex. O(n) scan per removal keeps this simple;
		// the protocol's cost model cares about bits, not referee cycles.
		x, bySide := 0, 0
		for v := 1; v <= n && x == 0; v++ {
			if !alive[v] {
				continue
			}
			coDeg := (remaining - 1) - recs[v].deg
			switch {
			case recs[v].deg <= p.K:
				x, bySide = v, 0
			case coDeg <= p.K:
				x, bySide = v, 1
			}
		}
		if x == 0 {
			return nil, fmt.Errorf("core: generalized pruning stuck with %d vertices, k=%d: %w", remaining, p.K, ErrDegeneracyExceeded)
		}
		rec := recs[x]
		var nbrs []int
		if bySide == 0 {
			var err error
			nbrs, err = dec.DecodeNeighborhood(rec.deg, rec.sums, n)
			if err != nil {
				return nil, fmt.Errorf("core: vertex %d (direct): %w", x, err)
			}
		} else {
			coDeg := (remaining - 1) - rec.deg
			nonNbrs, err := dec.DecodeNeighborhood(coDeg, rec.coSums, n)
			if err != nil {
				return nil, fmt.Errorf("core: vertex %d (complement): %w", x, err)
			}
			isNon := make([]bool, n+1)
			for _, u := range nonNbrs {
				if u == x || !alive[u] {
					return nil, fmt.Errorf("core: vertex %d decoded invalid non-neighbor %d", x, u)
				}
				isNon[u] = true
			}
			for v := 1; v <= n; v++ {
				if alive[v] && v != x && !isNon[v] {
					nbrs = append(nbrs, v)
				}
			}
		}
		// Record edges and peel x out of every remaining record.
		isNbr := make([]bool, n+1)
		for _, v := range nbrs {
			if v == x || !alive[v] {
				return nil, fmt.Errorf("core: vertex %d decoded invalid neighbor %d", x, v)
			}
			isNbr[v] = true
			if err := h.AddEdgeErr(x, v); err != nil {
				return nil, err
			}
		}
		alive[x] = false
		remaining--
		for v := 1; v <= n; v++ {
			if !alive[v] {
				continue
			}
			nrec := recs[v]
			for q := 1; q <= p.K; q++ {
				xp.SetInt64(int64(x))
				xp.Exp(xp, big.NewInt(int64(q)), nil)
				if isNbr[v] {
					nrec.sums[q-1].Sub(nrec.sums[q-1], xp)
				} else {
					nrec.coSums[q-1].Sub(nrec.coSums[q-1], xp)
				}
			}
			if isNbr[v] {
				nrec.deg--
			}
			if nrec.deg < 0 {
				return nil, fmt.Errorf("core: vertex %d degree went negative", v)
			}
			if p.K > 0 && (nrec.sums[0].Sign() < 0 || nrec.coSums[0].Sign() < 0) {
				return nil, fmt.Errorf("core: vertex %d power sum went negative", v)
			}
		}
	}
	if err := verifyEncoding(p, n, h, msgs); err != nil {
		return nil, err
	}
	return h, nil
}

var (
	_ engine.Reconstructor = (*GeneralizedDegeneracyProtocol)(nil)
	_ engine.BufferedLocal = (*GeneralizedDegeneracyProtocol)(nil)
	_ engine.Named         = (*GeneralizedDegeneracyProtocol)(nil)
)
