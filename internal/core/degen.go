// Package core implements the paper's contribution: the one-round frugal
// protocols of Section III (forest and bounded-degeneracy reconstruction,
// recognition, the generalized-degeneracy extension), and the executable
// reduction machinery of Section II (square, diameter, triangle) together
// with the gadget constructions of Figures 1 and 2 and the Lemma 1 capacity
// accounting.
package core

import (
	"errors"
	"fmt"
	"math/big"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/numeric"
)

// NeighborhoodDecoder recovers the set of neighbor IDs of a vertex of degree
// d ≤ k from the power sums in its message (Lemma 3). Implementations:
// NewtonDecoder (no precomputation, O(n·d) per vertex) and LookupDecoder
// (the paper's O(n^k) table with O(log n)-ish queries).
type NeighborhoodDecoder interface {
	DecodeNeighborhood(d int, sums []*big.Int, n int) ([]int, error)
}

// NewtonDecoder inverts power sums with Newton's identities and integer
// root extraction. Stateless and exact.
type NewtonDecoder struct{}

// DecodeNeighborhood implements NeighborhoodDecoder.
func (NewtonDecoder) DecodeNeighborhood(d int, sums []*big.Int, n int) ([]int, error) {
	if d < 0 {
		return nil, fmt.Errorf("core: negative degree %d", d)
	}
	if d > len(sums) {
		return nil, fmt.Errorf("core: degree %d exceeds available sums %d", d, len(sums))
	}
	return numeric.RecoverSet(d, sums[:d], n)
}

// LookupDecoder is the paper's table N: every ≤k-subset of {1..n} indexed by
// its power sums. Build once per (n,k) with NewLookupDecoder.
type LookupDecoder struct{ table *numeric.Lookup }

// NewLookupDecoder precomputes the table for graphs of size n and bound k.
// maxEntries guards memory (0 = unguarded).
func NewLookupDecoder(n, k, maxEntries int) (*LookupDecoder, error) {
	t, err := numeric.NewLookup(n, k, maxEntries)
	if err != nil {
		return nil, err
	}
	return &LookupDecoder{table: t}, nil
}

// DecodeNeighborhood implements NeighborhoodDecoder.
func (l *LookupDecoder) DecodeNeighborhood(d int, sums []*big.Int, n int) ([]int, error) {
	return l.table.Decode(d, sums)
}

// DegeneracyProtocol is the one-round frugal protocol of Theorem 5: it
// reconstructs any graph of degeneracy ≤ K and reports an error (or, via
// Recognize, a rejection) otherwise.
//
// Local message of node v (Algorithm 3), all widths fixed and public:
//
//	ID(v)            — ⌈log₂(n+1)⌉ bits
//	deg(v)           — ⌈log₂(n+1)⌉ bits
//	Σ_{w∈N(v)} w^p   — ⌈log₂ n^{p+1}⌉ bits, for p = 1..K
//
// for a total of O(K² log n) bits (Lemma 2). It is an engine.BufferedLocal:
// the sums accumulate in machine words (numeric.PowerSumAccumulator), so the
// local phase of a batch run allocates nothing; math/big appears only in
// the referee.
type DegeneracyProtocol struct {
	K       int
	Decoder NeighborhoodDecoder // nil means NewtonDecoder{}
}

// Name implements engine.Named.
func (p *DegeneracyProtocol) Name() string { return fmt.Sprintf("degeneracy[k=%d]", p.K) }

func (p *DegeneracyProtocol) decoder() NeighborhoodDecoder {
	if p.Decoder != nil {
		return p.Decoder
	}
	return NewtonDecoder{}
}

// MessageBits returns the exact message size this protocol uses on graphs of
// n nodes — both sides can compute it, which is what makes parsing possible.
func (p *DegeneracyProtocol) MessageBits(n int) int {
	w := bits.Width(n)
	total := 2 * w
	for q := 1; q <= p.K; q++ {
		total += numeric.MaxPowerSumBits(n, q)
	}
	return total
}

// LocalMessage implements Algorithm 3 (the local function Γˡₙ).
func (p *DegeneracyProtocol) LocalMessage(n, id int, nbrs []int) bits.String {
	var out bits.Writer
	p.AppendLocalMessage(&out, n, id, nbrs)
	return out.String()
}

// AppendLocalMessage implements engine.BufferedLocal: the same message,
// with the power sums in fixed-width words, written into a caller-owned
// writer so batch runs allocate nothing.
func (p *DegeneracyProtocol) AppendLocalMessage(out *bits.Writer, n, id int, nbrs []int) {
	w := bits.Width(n)
	out.WriteUint(uint64(id), w)
	out.WriteUint(uint64(len(nbrs)), w)
	var acc numeric.PowerSumAccumulator
	acc.Reset(n, p.K)
	acc.Add(nbrs...)
	for q := 1; q <= p.K; q++ {
		out.WriteLimbsWidth(acc.Sum(q), numeric.MaxPowerSumBits(n, q))
	}
}

// vertexRecord is the referee's mutable copy of one message during pruning.
type vertexRecord struct {
	id   int
	deg  int
	sums []*big.Int
}

func (p *DegeneracyProtocol) parse(n int, msgs []bits.String) ([]*vertexRecord, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	w := bits.Width(n)
	recs := make([]*vertexRecord, n+1)
	for i, m := range msgs {
		r := bits.NewReader(m)
		id64, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i+1, err)
		}
		deg64, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i+1, err)
		}
		id, deg := int(id64), int(deg64)
		if id != i+1 {
			return nil, fmt.Errorf("core: message %d claims ID %d", i+1, id)
		}
		if deg < 0 || deg >= n {
			return nil, fmt.Errorf("core: message %d: degree %d out of range", i+1, deg)
		}
		rec := &vertexRecord{id: id, deg: deg, sums: make([]*big.Int, p.K)}
		for q := 1; q <= p.K; q++ {
			s, err := r.ReadBigIntWidth(numeric.MaxPowerSumBits(n, q))
			if err != nil {
				return nil, fmt.Errorf("core: message %d sum %d: %w", i+1, q, err)
			}
			rec.sums[q-1] = s
		}
		if r.Remaining() != 0 {
			return nil, fmt.Errorf("core: message %d has %d trailing bits", i+1, r.Remaining())
		}
		recs[id] = rec
	}
	return recs, nil
}

// Reconstruct implements Algorithm 4 (the global function Γᵍₙ): repeatedly
// pick a vertex of remaining degree ≤ K, decode its remaining neighborhood
// from its power sums, record those edges, and peel the vertex off by
// updating its neighbors' records. Runs in O(n²·K) with the Newton decoder.
func (p *DegeneracyProtocol) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	recs, err := p.parse(n, msgs)
	if err != nil {
		return nil, err
	}
	dec := p.decoder()
	h := graph.New(n)
	processed := make([]bool, n+1)
	// Stack of candidates whose remaining degree may be ≤ K.
	var stack []int
	for v := 1; v <= n; v++ {
		if recs[v].deg <= p.K {
			stack = append(stack, v)
		}
	}
	remaining := n
	xp := new(big.Int)
	for remaining > 0 {
		// Pop a live candidate.
		x := 0
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !processed[c] && recs[c].deg <= p.K {
				x = c
				break
			}
		}
		if x == 0 {
			return nil, fmt.Errorf("core: pruning stuck with %d vertices left, k=%d: %w", remaining, p.K, ErrDegeneracyExceeded)
		}
		rec := recs[x]
		nbrs, err := dec.DecodeNeighborhood(rec.deg, rec.sums, n)
		if err != nil {
			return nil, fmt.Errorf("core: vertex %d: %w", x, err)
		}
		for _, v := range nbrs {
			if v == x || processed[v] {
				return nil, fmt.Errorf("core: vertex %d decoded invalid neighbor %d", x, v)
			}
			if err := h.AddEdgeErr(x, v); err != nil {
				return nil, fmt.Errorf("core: vertex %d: %w", x, err)
			}
			// Peel x out of v's record: deg decreases, sums lose x^p.
			nrec := recs[v]
			nrec.deg--
			if nrec.deg < 0 {
				return nil, fmt.Errorf("core: vertex %d degree went negative", v)
			}
			for q := 1; q <= p.K; q++ {
				xp.SetInt64(int64(x))
				xp.Exp(xp, big.NewInt(int64(q)), nil)
				nrec.sums[q-1].Sub(nrec.sums[q-1], xp)
				if nrec.sums[q-1].Sign() < 0 {
					return nil, fmt.Errorf("core: vertex %d power sum went negative", v)
				}
			}
			if nrec.deg <= p.K {
				stack = append(stack, v)
			}
		}
		// x's record must now be fully consumed.
		processed[x] = true
		remaining--
	}
	if err := verifyEncoding(p, n, h, msgs); err != nil {
		return nil, err
	}
	return h, nil
}

// verifyEncoding re-runs the public local function on the reconstructed
// graph and compares against the received messages. This makes every
// reconstructor accept exactly the image of its encoder: corrupted or
// adversarial message vectors either fail during pruning or fail here —
// never a silent wrong answer.
func verifyEncoding(local engine.Local, n int, h *graph.Graph, msgs []bits.String) error {
	for v := 1; v <= n; v++ {
		if !local.LocalMessage(n, v, h.Neighbors(v)).Equal(msgs[v-1]) {
			return fmt.Errorf("core: message of node %d is not the encoding of the reconstructed graph", v)
		}
	}
	return nil
}

// ErrDegeneracyExceeded marks the defined rejection of the recognition
// protocol: the pruning process found no vertex of remaining degree ≤ k.
var ErrDegeneracyExceeded = errors.New("graph degeneracy exceeds k")

// Recognize is the recognition variant noted after Theorem 5: it accepts iff
// the messages are consistent with a graph of degeneracy ≤ K (rejecting when
// the pruning process gets stuck). Malformed messages are reported as an
// error, distinct from a clean rejection.
func (p *DegeneracyProtocol) Recognize(n int, msgs []bits.String) (bool, error) {
	_, err := p.Reconstruct(n, msgs)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrDegeneracyExceeded):
		return false, nil
	default:
		return false, err
	}
}

// Interface conformance.
var (
	_ engine.Reconstructor = (*DegeneracyProtocol)(nil)
	_ engine.BufferedLocal = (*DegeneracyProtocol)(nil)
	_ engine.Named         = (*DegeneracyProtocol)(nil)
)
