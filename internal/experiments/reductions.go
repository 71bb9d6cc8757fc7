package experiments

import (
	"time"

	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/stats"
)

// E4SquareReduction: Theorem 1 / Algorithm 1 executed end to end with the
// exact oracle Γ standing in for the hypothetical frugal decider.
func E4SquareReduction(cfg Config) *stats.Report {
	t := stats.NewTable("Square reduction Δ: reconstructing square-free graphs (Algorithm 1)",
		"square-free source", "n", "m", "Δ msg bits", "= |Γ| at 2n?", "Γ invocations", "exact?", "time")
	t.Note = "Δ is built generically from any decider Γ for `contains C4`; run here with the " +
		"exact (non-frugal) oracle to validate the construction. |Δˡ(G)| = |Γˡ| at size 2n " +
		"— for the oracle, exactly 2n bits — matching the k(2n) relation the paper states."
	rng := gen.NewRand(cfg.Seed + 5)
	var cases []*graph.Graph
	if cfg.Quick {
		cases = []*graph.Graph{gen.ProjectivePlaneIncidence(2), gen.GreedySquareFree(rng, 12, 0)}
	} else {
		cases = []*graph.Graph{
			gen.ProjectivePlaneIncidence(2),
			gen.ProjectivePlaneIncidence(3),
			gen.GreedySquareFree(rng, 24, 0),
			gen.RandomTree(rng, 24),
			gen.Cycle(16),
		}
	}
	delta := &SquareReductionCounter{Inner: &core.SquareReduction{Gamma: core.NewSquareOracle()}}
	for _, g := range cases {
		start := time.Now()
		h, tr, err := engine.RunReconstructor(g, delta, engine.Serial{})
		elapsed := time.Since(start)
		exact := err == nil && h.Equal(g)
		sizeOK := tr.MaxBits() == 2*g.N()
		t.AddRow(describe(g), g.N(), g.M(), tr.MaxBits(), boolMark(sizeOK),
			g.N()*(g.N()-1)/2, boolMark(exact), elapsed)
	}
	return &stats.Report{ID: "E4", Title: "Square-detection hardness via reduction", Anchor: "Theorem 1, Algorithm 1", Tables: []*stats.Table{t}}
}

// SquareReductionCounter forwards to the inner reduction (kept for symmetry
// with possible instrumentation; the Γ-invocation count is C(n,2) by
// construction).
type SquareReductionCounter struct{ Inner *core.SquareReduction }

// LocalMessage forwards.
func (s *SquareReductionCounter) LocalMessage(n, id int, nbrs []int) bitsString {
	return s.Inner.LocalMessage(n, id, nbrs)
}

// Reconstruct forwards.
func (s *SquareReductionCounter) Reconstruct(n int, msgs []bitsString) (*graph.Graph, error) {
	return s.Inner.Reconstruct(n, msgs)
}

func describe(g *graph.Graph) string {
	switch {
	case g.IsForest():
		return "forest"
	case g.M() == g.N() && g.Girth() == g.N():
		return "cycle"
	case g.Girth() == 6 && !g.HasSquare():
		return "projective-plane incidence"
	case !g.HasSquare():
		return "greedy square-free"
	default:
		return "graph"
	}
}

// E5DiameterReduction: Theorem 2 / Algorithm 2 / Figure 1.
func E5DiameterReduction(cfg Config) *stats.Report {
	gadget := stats.NewTable("Figure 1 gadget G'_{s,t}: diam ≤ 3 ⟺ {s,t} ∈ E",
		"base graph", "pair (s,t)", "{s,t} ∈ E?", "diam(G')", "diam ≤ 3?", "agrees?")
	gadget.Note = "DiameterGadget attaches n+1→s, n+2→t and a vertex n+3 universal over G. " +
		"Includes the exact Figure 1 shape (7-vertex base, vertices 8–10 added)."
	fig1 := core.Figure1Base()
	pairs := [][2]int{{1, 7}, {1, 2}, {3, 6}, {2, 7}}
	for _, pr := range pairs {
		gg := core.DiameterGadget(fig1, pr[0], pr[1])
		isEdge := fig1.HasEdge(pr[0], pr[1])
		d := gg.Diameter()
		gadget.AddRow("Figure 1 base", pairStr(pr), edgeMark(isEdge), d,
			edgeMark(d >= 0 && d <= 3), boolMark((d >= 0 && d <= 3) == isEdge))
	}

	recon := stats.NewTable("Diameter reduction Δ: reconstructing ARBITRARY graphs (Algorithm 2)",
		"source", "n", "m", "Δ msg bits", "≈3·|Γ| at n+3", "exact?", "time")
	recon.Note = "Δ messages are the framed triple (m⁰, mˢ, mᵗ) — 'three times as big as those of Γ' " +
		"plus self-delimiting framing."
	rng := gen.NewRand(cfg.Seed + 6)
	sizes := pick(cfg.Quick, []int{10}, []int{10, 16, 24})
	delta := &core.DiameterReduction{Gamma: core.NewDiameterOracle(3)}
	for _, n := range sizes {
		for _, p := range []float64{0.25, 0.75} {
			g := gen.Gnp(rng, n, p)
			start := time.Now()
			h, tr, err := engine.RunReconstructor(g, delta, engine.Serial{})
			elapsed := time.Since(start)
			exact := err == nil && h.Equal(g)
			recon.AddRow("G(n,p="+trim(p)+")", n, g.M(), tr.MaxBits(), 3*(n+3), boolMark(exact), elapsed)
		}
	}
	return &stats.Report{ID: "E5", Title: "Diameter hardness via reduction", Anchor: "Theorem 2, Algorithm 2, Figure 1",
		Tables: []*stats.Table{gadget, recon}}
}

// E6TriangleReduction: Theorem 3 / Figure 2.
func E6TriangleReduction(cfg Config) *stats.Report {
	gadget := stats.NewTable("Figure 2 gadget G'_{s,t}: triangle ⟺ {s,t} ∈ E (bipartite G)",
		"base graph", "pair (s,t)", "{s,t} ∈ E?", "gadget has triangle?", "agrees?")
	fig2 := core.Figure2Base()
	pairs := [][2]int{{2, 7}, {1, 4}, {1, 7}, {3, 5}}
	for _, pr := range pairs {
		gg := core.TriangleGadget(fig2, pr[0], pr[1])
		isEdge := fig2.HasEdge(pr[0], pr[1])
		has := gg.HasTriangle()
		gadget.AddRow("Figure 2 base", pairStr(pr), edgeMark(isEdge), edgeMark(has), boolMark(has == isEdge))
	}

	recon := stats.NewTable("Triangle reduction Δ: reconstructing bipartite graphs",
		"source", "n", "m", "Δ msg bits", "≈2·|Γ| at n+1", "exact?", "time")
	recon.Note = "Δ messages are the framed pair (m', m'') — 'twice as big as those of Γ'."
	rng := gen.NewRand(cfg.Seed + 7)
	sizes := pick(cfg.Quick, []int{10}, []int{10, 14, 20})
	delta := &core.TriangleReduction{Gamma: core.NewTriangleOracle()}
	for _, n := range sizes {
		g := gen.RandomBipartite(rng, n/2, n/2, 0.4)
		start := time.Now()
		h, tr, err := engine.RunReconstructor(g, delta, engine.Serial{})
		elapsed := time.Since(start)
		exact := err == nil && h.Equal(g)
		recon.AddRow("random bipartite", n, g.M(), tr.MaxBits(), 2*(n+1), boolMark(exact), elapsed)
	}
	return &stats.Report{ID: "E6", Title: "Triangle hardness via reduction", Anchor: "Theorem 3, Figure 2",
		Tables: []*stats.Table{gadget, recon}}
}

// edgeMark renders a data-valued boolean (as opposed to a pass/fail verdict,
// which uses boolMark and is scanned for by the tests).
func edgeMark(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func pairStr(p [2]int) string {
	return "(" + itoa(p[0]) + "," + itoa(p[1]) + ")"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func trim(f float64) string {
	s := itoa(int(f * 100))
	return "0." + s
}
