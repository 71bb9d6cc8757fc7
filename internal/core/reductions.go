package core

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
)

// This file makes the paper's Section II reductions executable. Each one
// turns an arbitrary one-round decider Γ for a "simple" property into a
// one-round reconstructor Δ for a large graph family, with only a constant
// blow-up in message size. Combined with Lemma 1 (a frugal one-round
// protocol can only reconstruct 2^{O(n log n)} graphs) and the counting
// facts (2^{Θ(n^{3/2})} square-free graphs, 2^{Ω(n²/2)} graphs,
// 2^{Ω((n/2)²)} balanced bipartite graphs), they prove Theorems 1–3.
//
// The construction hinges on Definition 1's remark: Γˡₙ is evaluable at ANY
// (id, neighborhood) pair, so the referee can synthesize the messages of
// gadget vertices that exist in no real network.

// SquareReduction is Algorithm 1 (Theorem 1): from a decider Γ for "G has a
// C4 subgraph", build a reconstructor Δ for square-free graphs. Each node i
// of G behaves as node i of the never-built gadget G'_{s,t} on 2n vertices —
// legal because its gadget neighborhood N_G(i) ∪ {i+n} does not depend on
// (s,t). The referee synthesizes the other n messages for every pair (s,t)
// and asks Γ whether G'_{s,t} has a square, which holds iff s ~ t.
type SquareReduction struct{ Gamma engine.Decider }

// Name implements engine.Named.
func (r *SquareReduction) Name() string { return "reduction:square" }

// LocalMessage sends exactly Γ's message for node id of G'_{s,t}:
// |Δˡ(G)| = |Γˡ| at size 2n.
func (r *SquareReduction) LocalMessage(n, id int, nbrs []int) bits.String {
	gadgetNbrs := append(append(make([]int, 0, len(nbrs)+1), nbrs...), id+n)
	return r.Gamma.LocalMessage(2*n, id, gadgetNbrs)
}

// Reconstruct implements the global function Δᵍₙ of Algorithm 1.
func (r *SquareReduction) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	h := graph.New(n)
	// Messages of the pendant vertices j ∈ {n+1..2n} other than n+s, n+t
	// never depend on (s,t): node n+i's gadget neighborhood is {i}.
	pendant := make([]bits.String, n+1)
	for i := 1; i <= n; i++ {
		pendant[i] = r.Gamma.LocalMessage(2*n, n+i, []int{i})
	}
	full := make([]bits.String, 2*n)
	copy(full, msgs)
	for s := 1; s <= n; s++ {
		for t := s + 1; t <= n; t++ {
			for i := 1; i <= n; i++ {
				full[n+i-1] = pendant[i]
			}
			full[n+s-1] = r.Gamma.LocalMessage(2*n, n+s, []int{s, n + t})
			full[n+t-1] = r.Gamma.LocalMessage(2*n, n+t, []int{t, n + s})
			hasSquare, err := r.Gamma.Decide(2*n, full)
			if err != nil {
				return nil, fmt.Errorf("core: Γ failed on G'_{%d,%d}: %w", s, t, err)
			}
			if hasSquare {
				h.AddEdge(s, t)
			}
		}
	}
	return h, nil
}

// DiameterReduction is Algorithm 2 (Theorem 2): from a decider Γ for
// "diam ≤ 3", build a reconstructor Δ for ALL graphs. Here a node's gadget
// neighborhood does depend on (s,t) — but only through three possibilities,
// so each node sends the triple (m⁰ᵢ, mˢᵢ, mᵗᵢ): its Γ-message when it is a
// bystander, when it is s (gaining neighbor n+1), and when it is t (gaining
// n+2). Every node always gains the universal vertex n+3. |Δˡ| ≈ 3|Γˡ| at
// size n+3, plus framing.
type DiameterReduction struct{ Gamma engine.Decider }

// Name implements engine.Named.
func (r *DiameterReduction) Name() string { return "reduction:diameter" }

// LocalMessage sends the framed triple (m⁰, mˢ, mᵗ).
func (r *DiameterReduction) LocalMessage(n, id int, nbrs []int) bits.String {
	N := n + 3
	with := func(extra ...int) []int {
		out := append(append(make([]int, 0, len(nbrs)+len(extra)), nbrs...), extra...)
		return out
	}
	m0 := r.Gamma.LocalMessage(N, id, with(n+3))
	ms := r.Gamma.LocalMessage(N, id, with(n+1, n+3))
	mt := r.Gamma.LocalMessage(N, id, with(n+2, n+3))
	return bits.EncodeParts(m0, ms, mt)
}

// Reconstruct implements the global function Δᵍₙ of Algorithm 2.
func (r *DiameterReduction) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	N := n + 3
	m0 := make([]bits.String, n+1)
	ms := make([]bits.String, n+1)
	mt := make([]bits.String, n+1)
	for i := 1; i <= n; i++ {
		parts, err := bits.DecodeParts(msgs[i-1], 3)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i, err)
		}
		m0[i], ms[i], mt[i] = parts[0], parts[1], parts[2]
	}
	// Gadget vertices' own messages depend only on (Γ, s, t).
	all := make([]int, n)
	for i := range all {
		all[i] = i + 1
	}
	mUniversal := r.Gamma.LocalMessage(N, n+3, all)
	h := graph.New(n)
	full := make([]bits.String, N)
	for s := 1; s <= n; s++ {
		for t := s + 1; t <= n; t++ {
			for i := 1; i <= n; i++ {
				switch i {
				case s:
					full[i-1] = ms[i]
				case t:
					full[i-1] = mt[i]
				default:
					full[i-1] = m0[i]
				}
			}
			full[n] = r.Gamma.LocalMessage(N, n+1, []int{s})
			full[n+1] = r.Gamma.LocalMessage(N, n+2, []int{t})
			full[n+2] = mUniversal
			small, err := r.Gamma.Decide(N, full)
			if err != nil {
				return nil, fmt.Errorf("core: Γ failed on G'_{%d,%d}: %w", s, t, err)
			}
			if small {
				h.AddEdge(s, t)
			}
		}
	}
	return h, nil
}

// TriangleReduction is the Theorem 3 construction: from a decider Γ for
// "G has a triangle", build a reconstructor Δ for bipartite graphs with
// parts {1..n/2} and {n/2+1..n}. Each node sends the framed pair
// (m'ᵢ, m”ᵢ): its Γ-message as a bystander and with the extra neighbor n+1.
// |Δˡ| ≈ 2|Γˡ| at size n+1.
//
// Reconstruct only probes cross pairs (s ≤ n/2 < t): for bipartite G those
// are the only possible edges, and G'_{s,t} has a triangle iff {s,t} ∈ E.
type TriangleReduction struct{ Gamma engine.Decider }

// Name implements engine.Named.
func (r *TriangleReduction) Name() string { return "reduction:triangle" }

// LocalMessage sends the framed pair (m', m”).
func (r *TriangleReduction) LocalMessage(n, id int, nbrs []int) bits.String {
	N := n + 1
	m1 := r.Gamma.LocalMessage(N, id, nbrs)
	withExtra := append(append(make([]int, 0, len(nbrs)+1), nbrs...), n+1)
	m2 := r.Gamma.LocalMessage(N, id, withExtra)
	return bits.EncodeParts(m1, m2)
}

// Reconstruct implements the global function Δᵍₙ for Theorem 3.
func (r *TriangleReduction) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	if n%2 != 0 {
		return nil, fmt.Errorf("core: triangle reduction needs even n, got %d", n)
	}
	N := n + 1
	plain := make([]bits.String, n+1)
	extra := make([]bits.String, n+1)
	for i := 1; i <= n; i++ {
		parts, err := bits.DecodeParts(msgs[i-1], 2)
		if err != nil {
			return nil, fmt.Errorf("core: message %d: %w", i, err)
		}
		plain[i], extra[i] = parts[0], parts[1]
	}
	h := graph.New(n)
	full := make([]bits.String, N)
	half := n / 2
	for s := 1; s <= half; s++ {
		for t := half + 1; t <= n; t++ {
			for i := 1; i <= n; i++ {
				if i == s || i == t {
					full[i-1] = extra[i]
				} else {
					full[i-1] = plain[i]
				}
			}
			full[n] = r.Gamma.LocalMessage(N, n+1, []int{s, t})
			hasTriangle, err := r.Gamma.Decide(N, full)
			if err != nil {
				return nil, fmt.Errorf("core: Γ failed on G'_{%d,%d}: %w", s, t, err)
			}
			if hasTriangle {
				h.AddEdge(s, t)
			}
		}
	}
	return h, nil
}

var (
	_ engine.Reconstructor = (*SquareReduction)(nil)
	_ engine.Reconstructor = (*DiameterReduction)(nil)
	_ engine.Reconstructor = (*TriangleReduction)(nil)
)
