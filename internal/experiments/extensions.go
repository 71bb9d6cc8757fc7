package experiments

import (
	"math"

	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/sketch"
	"refereenet/internal/stats"
)

// E9PartitionConnectivity: the §IV remark — k coalitions, O(k log n) bits
// per node, exact connectivity.
func E9PartitionConnectivity(cfg Config) *stats.Report {
	t := stats.NewTable("k-partition connectivity (conclusion remark): O(k·log n) bits/node",
		"n", "k parts", "bits/node", "k·⌈log(n+1)⌉", "trials", "correct")
	t.Note = "Vertices of a part share all their knowledge; each vertex reports one parent edge " +
		"per canonical forest (one intra-part + k−1 bipartite). The referee's union-find is exact: " +
		"correctness is 100% by construction, measured here over connected/disconnected mixes."
	rng := gen.NewRand(cfg.Seed + 8)
	sizes := pick(cfg.Quick, []int{64}, []int{64, 256, 1024})
	trials := 20
	if cfg.Quick {
		trials = 6
	}
	for _, n := range sizes {
		for _, k := range []int{1, 2, 4, 8, 16} {
			pc := sketch.NewIntervalPartition(n, k)
			correct := 0
			var maxBits int
			for trial := 0; trial < trials; trial++ {
				var g *graph.Graph
				want := trial%2 == 0
				if want {
					g = gen.ConnectedGnp(rng, n, 2.0/float64(n))
				} else {
					g = gen.DisjointCliques(2, n/2)
				}
				got, bitsUsed, err := pc.Run(g)
				if err == nil && got == want {
					correct++
				}
				if bitsUsed > maxBits {
					maxBits = bitsUsed
				}
			}
			logn := int(math.Ceil(math.Log2(float64(n + 1))))
			t.AddRow(n, k, maxBits, k*logn, trials, itoa(correct)+"/"+itoa(trials))
		}
	}
	return &stats.Report{ID: "E9", Title: "Partition connectivity", Anchor: "Section IV remark on partition arguments",
		Tables: []*stats.Table{t}}
}

// E12Extensions: (a) randomized one-round connectivity via ℓ₀-sketches;
// (b) multi-round adaptive reconstruction.
func E12Extensions(cfg Config) *stats.Report {
	a := stats.NewTable("One-round randomized connectivity via ℓ₀-sketches (public coins)",
		"n", "msg bits", "bits/log³n", "trials", "success", "forest edges found")
	a.Note = "AGM-style linear sketches run as a engine.Decider: polylog(n)-bit messages, one round. " +
		"Contrast: deterministically, connectivity in one frugal round is the paper's open question."
	sizes := pick(cfg.Quick, []int{16, 32}, []int{16, 32, 64, 128})
	trials := 30
	if cfg.Quick {
		trials = 8
	}
	rng := gen.NewRand(cfg.Seed + 9)
	for _, n := range sizes {
		success, forestEdges := 0, 0
		var msgBits int
		for trial := 0; trial < trials; trial++ {
			sc := sketch.NewSketchConnectivity(n, cfg.Seed+int64(trial)*7919)
			msgBits = sc.MessageBits(n)
			var g *graph.Graph
			want := trial%2 == 0
			if want {
				g = gen.ConnectedGnp(rng, n, 3.0/float64(n))
			} else {
				g = gen.DisjointCliques(2, n/2)
			}
			tr := engine.LocalPhase(g, sc, engine.Chunked{})
			got, err := sc.Decide(n, tr.Messages)
			if err == nil && got == want {
				success++
			}
			if want {
				forest, _ := sc.SpanningForest(n, tr.Messages)
				forestEdges += len(forest)
			}
		}
		logn := math.Log2(float64(n))
		a.AddRow(n, msgBits, float64(msgBits)/(logn*logn*logn), trials,
			itoa(success)+"/"+itoa(trials), forestEdges)
	}

	b := stats.NewTable("Multi-round adaptive reconstruction (unknown degeneracy, doubling k)",
		"graph", "n", "degeneracy d", "rounds", "⌈log₂ d⌉+1", "max msg bits", "broadcast bits")
	b.Note = "Round r runs the Theorem 5 protocol with k = 2^{r-1}; the referee broadcasts one bit " +
		"to open each extra round. Rounds track ⌈log₂ d⌉+1; per-node bits stay O(d² log n)."
	rng2 := gen.NewRand(cfg.Seed + 10)
	n := 32
	if cfg.Quick {
		n = 16
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"random tree", gen.RandomTree(rng2, n)},
		{"2-tree", gen.KTree(rng2, n, 2)},
		{"apollonian", gen.Apollonian(rng2, n)},
		{"6-tree", gen.KTree(rng2, n, 6)},
		{"complete", gen.Complete(12)},
	}
	for _, c := range cases {
		d, _ := c.g.Degeneracy()
		res, err := engine.RunMultiRound(c.g, &core.AdaptiveReconstruction{}, 12, engine.Serial{})
		if err != nil {
			b.AddRow(c.name, c.g.N(), d, "error", "-", "-", "-")
			continue
		}
		want := 1
		if d > 1 {
			want = int(math.Ceil(math.Log2(float64(d)))) + 1
		}
		b.AddRow(c.name, c.g.N(), d, res.Rounds, want, res.MaxNodeBits(), res.BroadcastBits)
	}

	c := stats.NewTable("One-round randomized bipartiteness via double-cover sketches",
		"n", "msg bits", "trials", "success")
	c.Note = "The paper's second open question, probed with shared coins: G is bipartite iff its " +
		"double cover has 2× the components, and both counts come from ℓ₀-sketches each node " +
		"computes locally (one G-sketch + sketches of v⁺ and v⁻ in the cover)."
	sizesB := pick(cfg.Quick, []int{12}, []int{12, 24, 48})
	trialsB := 20
	if cfg.Quick {
		trialsB = 6
	}
	rng3 := gen.NewRand(cfg.Seed + 11)
	for _, n := range sizesB {
		success := 0
		var msgBits int
		for trial := 0; trial < trialsB; trial++ {
			sb := sketch.NewSketchBipartiteness(n, cfg.Seed+int64(trial)*104729)
			msgBits = sb.MessageBits(n)
			var g *graph.Graph
			want := trial%2 == 0
			if want {
				g = gen.RandomBipartite(rng3, n/2, n-n/2, 0.3)
			} else {
				g = gen.ConnectedGnp(rng3, n, 0.5)
				if b, _ := g.IsBipartite(); b {
					want = true
				}
			}
			got, _, err := engine.RunDecider(g, sb, engine.Serial{})
			if err == nil && got == want {
				success++
			}
		}
		c.AddRow(n, msgBits, trialsB, itoa(success)+"/"+itoa(trialsB))
	}

	return &stats.Report{ID: "E12", Title: "Beyond one deterministic round", Anchor: "Section IV open questions",
		Tables: []*stats.Table{a, b, c}}
}
