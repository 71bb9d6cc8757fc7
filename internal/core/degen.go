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

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/numeric"
)

// NeighborhoodDecoder recovers the set of neighbor IDs of a vertex of degree
// d ≤ k from the power sums in its message (Lemma 3), appending it to dst.
// The sums are the referee's words for the vertex, Reset for (n, k).
// Implementations: NewtonDecoder (no precomputation, O(n·d) word additions
// per vertex) and LookupDecoder (the paper's O(n^k) table, one map query
// per vertex). A decoder may return any set: the peel rejects an ID that is
// out of range or already peeled, and the final re-encoding rejects every
// other wrong answer.
type NeighborhoodDecoder interface {
	DecodeNeighborhood(dst []int, d int, sums *numeric.PowerSumAccumulator, n int) ([]int, error)
}

// NewtonDecoder inverts power sums with Newton's identities over
// GF(2^61 − 1) and a root scan of [1, n] (numeric.RecoverSet). Stateless
// and exact.
type NewtonDecoder struct{}

// DecodeNeighborhood implements NeighborhoodDecoder.
func (NewtonDecoder) DecodeNeighborhood(dst []int, d int, sums *numeric.PowerSumAccumulator, n int) ([]int, error) {
	return numeric.RecoverSet(dst, d, sums, n)
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
func (l *LookupDecoder) DecodeNeighborhood(dst []int, d int, sums *numeric.PowerSumAccumulator, _ int) ([]int, error) {
	return l.table.Decode(dst, d, sums)
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
// for a total of O(K² log n) bits (Lemma 2). Both phases work in machine
// words (numeric.PowerSumAccumulator): it is an engine.BufferedLocal whose
// local phase allocates nothing in a batch run, and its referee is the
// word-sized peel it shares with ForestProtocol (its K = 1 case) and
// GeneralizedDegeneracyProtocol.
type DegeneracyProtocol struct {
	K       int
	Decoder NeighborhoodDecoder // nil means NewtonDecoder{}
}

// Name implements engine.Named.
func (p *DegeneracyProtocol) Name() string { return fmt.Sprintf("degeneracy[k=%d]", p.K) }

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

// Reconstruct implements Algorithm 4 (the global function Γᵍₙ): repeatedly
// pick a vertex of remaining degree ≤ K, decode its remaining neighborhood
// from its power sums, record those edges, and peel the vertex off its
// neighbors' records. Runs in O(n²·K) word operations with the Newton
// decoder.
func (p *DegeneracyProtocol) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	return peel(p, n, p.K, false, p.Decoder, msgs, "core: pruning stuck with %[1]d vertices left, k=%[2]d: %[3]w")
}

// peel is Algorithm 4 on machine words, the one referee of the forest,
// degeneracy and generalized protocols. A message is (ID, deg, S_1..S_k)
// at the public widths; with co, each S_q is followed by the
// co-neighborhood's S̄_q. The sums are read into one accumulator per vertex
// and side. The peel repeatedly takes a vertex x whose remaining degree is
// ≤ k (with co, or whose remaining co-degree is), decodes its remaining
// neighborhood (or co-neighborhood), records the edges, and takes x out of
// the records of the vertices left: degrees drop and x^p leaves their sums
// through the accumulator's subtraction, which turns sums that would go
// below zero into an error, never a panic. Degree and co-degree only fall,
// so a vertex stays prunable once it is, and the peel gets stuck — an
// error formatted from stuck with the vertices left and k, wrapping
// ErrDegeneracyExceeded — exactly when no elimination order exists,
// whichever order it takes. The result must re-encode to msgs under local.
func peel(local engine.Local, n, k int, co bool, dec NeighborhoodDecoder, msgs []bits.String, stuck string) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	if dec == nil {
		dec = NewtonDecoder{}
	}
	sides := 1
	if co {
		sides = 2
	}
	// deg[v] is v's remaining degree and mark[u] == x puts u in the set
	// decoded for x; the stack holds each vertex at most once.
	ints := make([]int, 4*(n+1)+k+1)
	deg, mark, widths := ints[:n+1], ints[n+1:2*(n+1)], ints[4*(n+1):]
	stack, set := ints[2*(n+1):2*(n+1):3*(n+1)], ints[3*(n+1):3*(n+1):4*(n+1)]
	flags := make([]bool, 2*(n+1))
	removed, queued := flags[:n+1], flags[n+1:]
	for q := 1; q <= k; q++ {
		widths[q] = numeric.MaxPowerSumBits(n, q)
	}
	// accs[s*(n+1)+v] holds vertex v's sums over its neighborhood (s = 0)
	// or its co-neighborhood (s = 1).
	accs := make([]numeric.PowerSumAccumulator, sides*(n+1))
	w := bits.Width(n)
	for i, m := range msgs {
		v := i + 1
		r := bits.NewReader(m)
		id, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", v, err)
		}
		if int(id) != v {
			return nil, fmt.Errorf("core: message %d claims ID %d", v, id)
		}
		d, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", v, err)
		}
		if d >= uint64(n) {
			return nil, fmt.Errorf("core: message %d: degree %d out of range", v, d)
		}
		deg[v] = int(d)
		for s := 0; s < sides; s++ {
			accs[s*(n+1)+v].Reset(n, k)
		}
		for q := 1; q <= k; q++ {
			for s := 0; s < sides; s++ {
				if err := r.ReadLimbsWidth(accs[s*(n+1)+v].Sum(q), widths[q]); err != nil {
					return nil, fmt.Errorf("core: message %d sum %d: %w", v, q, err)
				}
			}
		}
		if r.Remaining() != 0 {
			return nil, fmt.Errorf("core: message %d has %d trailing bits", v, r.Remaining())
		}
	}

	h := graph.New(n)
	left := n
	push := func(u int) {
		if !queued[u] && (deg[u] <= k || co && left-1-deg[u] <= k) {
			queued[u] = true
			stack = append(stack, u)
		}
	}
	// drop takes x out of u's record on the side the edge {x, u} is on.
	drop := func(x, u int, nbr bool) error {
		acc := &accs[u]
		if nbr {
			if err := h.AddEdgeErr(x, u); err != nil {
				return fmt.Errorf("core: vertex %d: %w", x, err)
			}
			deg[u]--
		} else {
			acc = &accs[n+1+u]
		}
		if deg[u] < 0 || !acc.TryRemove(x) {
			return fmt.Errorf("core: peeling vertex %d takes vertex %d's degree or power sums below zero", x, u)
		}
		push(u)
		return nil
	}
	for v := 1; v <= n; v++ {
		push(v)
	}
	for left > 0 {
		if len(stack) == 0 {
			return nil, fmt.Errorf(stuck, left, k, ErrDegeneracyExceeded)
		}
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		direct := deg[x] <= k
		d, acc := deg[x], &accs[x]
		if !direct {
			d, acc = left-1-deg[x], &accs[n+1+x]
		}
		var err error
		if set, err = dec.DecodeNeighborhood(set[:0], d, acc, n); err != nil {
			return nil, fmt.Errorf("core: vertex %d: %w", x, err)
		}
		for _, u := range set {
			if u < 1 || u > n || u == x || removed[u] {
				return nil, fmt.Errorf("core: vertex %d decoded invalid neighbor %d", x, u)
			}
			mark[u] = x
		}
		removed[x] = true
		left--
		if !co {
			for _, u := range set {
				if err := drop(x, u, true); err != nil {
					return nil, err
				}
			}
			continue
		}
		for u := 1; u <= n; u++ {
			if !removed[u] {
				if err := drop(x, u, (mark[u] == x) == direct); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := verifyEncoding(local, n, h, msgs); err != nil {
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
