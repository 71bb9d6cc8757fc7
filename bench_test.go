// Benchmarks: one per experiment of DESIGN.md §4 (each experiment stands in
// for a table/figure of this theory paper), plus micro-benchmarks of the
// protocol kernels and the ablations DESIGN.md §5 calls out.
package refereenet_test

import (
	"fmt"
	"net"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/canon"
	"refereenet/internal/collide"
	"refereenet/internal/congest"
	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/experiments"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/numeric"
	"refereenet/internal/sketch"
	"refereenet/internal/sweep"
)

func quickCfg() experiments.Config { return experiments.Config{Seed: 1, Quick: true} }

// --- One bench per experiment (regenerates the table in Quick scale) ---

func BenchmarkE1DegeneracyReconstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1Reconstruction(quickCfg())
	}
}

func BenchmarkE2LocalEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2LocalEncoding(quickCfg())
	}
}

func BenchmarkE3DecoderAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3DecoderAblation(quickCfg())
	}
}

func BenchmarkE4SquareReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4SquareReduction(quickCfg())
	}
}

func BenchmarkE5DiameterReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5DiameterReduction(quickCfg())
	}
}

func BenchmarkE6TriangleReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6TriangleReduction(quickCfg())
	}
}

func BenchmarkE7Counting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7Counting(quickCfg())
	}
}

func BenchmarkE8CollisionSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Collisions(quickCfg())
	}
}

func BenchmarkE9PartitionConnectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9PartitionConnectivity(quickCfg())
	}
}

func BenchmarkE10Recognition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10Recognition(quickCfg())
	}
}

func BenchmarkE11Generalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11Generalized(quickCfg())
	}
}

func BenchmarkE12Extensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12Extensions(quickCfg())
	}
}

// --- Protocol kernels across sizes (the scaling stories behind E1/E2) ---

func BenchmarkLocalEncode(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		for _, n := range []int{256, 1024, 4096} {
			g := gen.RandomKDegenerate(gen.NewRand(1), n, k, true)
			p := &core.DegeneracyProtocol{K: k}
			// Highest-degree node = worst-case local computation.
			v, best := 1, -1
			for u := 1; u <= n; u++ {
				if d := g.Degree(u); d > best {
					v, best = u, d
				}
			}
			nbrs := g.Neighbors(v)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.LocalMessage(n, v, nbrs)
				}
			})
		}
	}
}

// BenchmarkReferee times Theorem 5's referee, the word-sized peel that
// forest, degeneracy and generalized share, on one transcript per row.
func BenchmarkReferee(b *testing.B) {
	run := func(name string, g *graph.Graph, p engine.Reconstructor) {
		n := g.N()
		tr := engine.LocalPhase(g, p, engine.Chunked{})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if h, err := p.Reconstruct(n, tr.Messages); err != nil || h.M() != g.M() {
					b.Fatalf("reconstruct: %v", err)
				}
			}
		})
	}
	for _, k := range []int{1, 3} {
		for _, n := range []int{256, 1024} {
			run(fmt.Sprintf("decode/k=%d/n=%d", k, n), gen.RandomKDegenerate(gen.NewRand(2), n, k, true), &core.DegeneracyProtocol{K: k})
		}
	}
	run("ktree64/k=3", gen.KTree(gen.NewRand(2), 64, 3), &core.DegeneracyProtocol{K: 3})
	run("forest/n=1024", gen.RandomForest(gen.NewRand(2), 1024, 4), core.ForestProtocol{})
	run("generalized/k=1/n=256", gen.RandomTree(gen.NewRand(2), 256).Complement(), &core.GeneralizedDegeneracyProtocol{K: 1})
}

// BenchmarkRunBatch is the batched execution path: one registered protocol
// over a stream of 10⁴ generated graphs per op. The serial variant is the
// allocation-free steady state (per-worker writer + byte arena, reused
// message vectors); the pool variant fans graphs over all CPUs; the gray
// variants stream every labelled n=6 graph out of the Gray-code enumerator.
func BenchmarkRunBatch(b *testing.B) {
	const corpus = 10000
	rng := gen.NewRand(42)
	graphs := make([]*graph.Graph, corpus)
	for i := range graphs {
		graphs[i] = gen.RandomForest(rng, 32, 3)
	}
	forest, ok := engine.New("forest", engine.Config{N: 32})
	if !ok {
		b.Fatal("forest not registered")
	}
	degree, ok := engine.New("degree", engine.Config{})
	if !ok {
		b.Fatal("degree not registered")
	}

	b.Run("serial/forest/10k", func(b *testing.B) {
		bt := engine.NewBatch(forest, engine.BatchOptions{Workers: 1, MaxN: 32})
		defer bt.Close()
		src := engine.NewSliceSource(graphs)
		bt.Run(src) // warm the scratch before measuring
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Reset()
			if st := bt.Run(src); st.Graphs != corpus {
				b.Fatalf("ran %d graphs", st.Graphs)
			}
		}
	})
	// Theorem 5's local phase on 64-vertex 3-trees, scalar-mix's degeneracy
	// op: word-sized power sums and the byte writer, 0 allocs/op.
	ktrees := make([]*graph.Graph, 200)
	for i := range ktrees {
		ktrees[i] = gen.KTree(rng, 64, 3)
	}
	b.Run("serial/degeneracy/ktree64", func(b *testing.B) {
		degen, ok := engine.New("degeneracy", engine.Config{N: 64, K: 3})
		if !ok {
			b.Fatal("degeneracy not registered")
		}
		bt := engine.NewBatch(degen, engine.BatchOptions{Workers: 1, MaxN: 64})
		defer bt.Close()
		src := engine.NewSliceSource(ktrees)
		bt.Run(src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Reset()
			if st := bt.Run(src); st.Graphs != uint64(len(ktrees)) {
				b.Fatalf("ran %d graphs", st.Graphs)
			}
		}
	})
	b.Run("pool/forest/10k", func(b *testing.B) {
		bt := engine.NewBatch(forest, engine.BatchOptions{MaxN: 32})
		defer bt.Close()
		src := engine.NewSliceSource(graphs)
		bt.Run(src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Reset()
			if st := bt.Run(src); st.Graphs != corpus {
				b.Fatalf("ran %d graphs", st.Graphs)
			}
		}
	})
	b.Run("gray/degree/n=6", func(b *testing.B) {
		bt := engine.NewBatch(degree, engine.BatchOptions{Workers: 1})
		defer bt.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := bt.Run(collide.NewGraySource(6))
			if st.Graphs != 1<<15 {
				b.Fatalf("ran %d graphs", st.Graphs)
			}
		}
	})
	b.Run("grayshards/degree/n=6", func(b *testing.B) {
		bt := engine.NewBatch(degree, engine.BatchOptions{})
		defer bt.Close()
		const total = uint64(1) << 15
		for i := 0; i < b.N; i++ {
			srcs := make([]engine.Source, 0, 8)
			for s := uint64(0); s < 8; s++ {
				srcs = append(srcs, collide.NewGraySourceRange(6, s*total/8, (s+1)*total/8))
			}
			if st := bt.RunShards(srcs...); st.Graphs != total {
				b.Fatalf("ran %d graphs", st.Graphs)
			}
		}
	})
}

// BenchmarkVectorBatch is the bitsliced path's ladder: each vectorized
// protocol over the same gray plane twice — the forced-scalar loop
// (NoVector) versus the lane-parallel block path — so every scalar/vector
// pair is measured in one run and cmd/benchreport can attach a Welch t-test
// to the speedup claim. Planes: the full n = 6 space (2^15 ranks) and an
// n = 9 window of 2^18 ranks at rank 2^35, the production plane's shape.
// The vector-only n=9-unaligned plane shifts that window by 13 ranks, as a
// unit bound from SplitGrayRanks may be: its head block is short and every
// later block is aligned again. The ns/graph metric is the cross-plane
// comparable unit.
func BenchmarkVectorBatch(b *testing.B) {
	protocols := []struct {
		name   string
		decide bool
	}{
		{"degree", false},
		{"mod3", false},
		{"mod7", false},
		{"hash16", false},
		{"oracle-triangle", true},
		{"oracle-diam3", true},
		{"oracle-conn", true},
		{"forest", false},
		{"oracle-forest", true},
	}
	planes := []struct {
		label      string
		n          int
		lo, hi     uint64
		vectorOnly bool
	}{
		{"n=6", 6, 0, 1 << 15, false},
		{"n=9", 9, 1 << 35, 1<<35 + 1<<18, false},
		{"n=9-unaligned", 9, 1<<35 + 13, 1<<35 + 13 + 1<<18, true},
	}
	for _, pr := range protocols {
		for _, pl := range planes {
			graphs := pl.hi - pl.lo
			for _, mode := range []string{"scalar", "vector"} {
				if pl.vectorOnly && mode == "scalar" {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/%s", pr.name, pl.label, mode), func(b *testing.B) {
					p, ok := engine.New(pr.name, engine.Config{N: pl.n})
					if !ok {
						b.Fatalf("%s not registered", pr.name)
					}
					bt := engine.NewBatch(p, engine.BatchOptions{
						Workers: 1, Decide: pr.decide, MaxN: pl.n, NoVector: mode == "scalar",
					})
					defer bt.Close()
					if mode == "vector" && !bt.Vectorized() {
						b.Fatalf("%s did not engage the vector path", pr.name)
					}
					src := collide.NewGraySourceRange(pl.n, pl.lo, pl.hi)
					bt.Run(src) // warm the scratch
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						src.Reset()
						if st := bt.Run(src); st.Graphs != graphs {
							b.Fatalf("ran %d graphs, want %d", st.Graphs, graphs)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(graphs), "ns/graph")
				})
			}
		}
	}
}

// BenchmarkExecuteShard is the batch-shard boundary: one engine.ExecuteShard
// call per op, the whole per-unit path of a daemon (protocol instance,
// source resolution, batch set-up, blocks, fold, Close) without codec or
// coordinator. The gray rows are n = 6 units of 1 and 4 aligned 64-rank
// blocks, units-n6's shape; the canon row is a weighted n = 6 class window.
// Set-up allocates only the source header and, for oracle-conn, the
// protocol instance and its kernel closures: see B/op and allocs/op.
func BenchmarkExecuteShard(b *testing.B) {
	classes, err := canon.Classes(6)
	if err != nil {
		b.Fatal(err)
	}
	var windowGraphs uint64
	for _, c := range classes[20:150] {
		windowGraphs += c.Weight
	}
	type row struct {
		name   string
		spec   engine.ShardSpec
		graphs uint64
	}
	var rows []row
	for _, pr := range []struct {
		name, protocol string
		decide         bool
	}{{"hash16", "hash16", false}, {"oracle-conn-decide", "oracle-conn", true}} {
		for _, blocks := range []uint64{1, 4} {
			rows = append(rows, row{fmt.Sprintf("gray/%s/%d-block", pr.name, blocks), engine.ShardSpec{
				Protocol: pr.protocol, Config: engine.Config{N: 6}, Decide: pr.decide,
				Source: engine.SourceSpec{Kind: "gray", N: 6, Lo: 1024, Hi: 1024 + 64*blocks},
			}, 64 * blocks})
		}
	}
	rows = append(rows, row{"canon/oracle-conn-decide/window", engine.ShardSpec{
		Protocol: "oracle-conn", Config: engine.Config{N: 6}, Decide: true,
		Source: engine.SourceSpec{Kind: "canon", N: 6, Lo: 20, Hi: 150},
	}, windowGraphs})
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := engine.ExecuteShard(r.spec)
				if err != nil {
					b.Fatal(err)
				}
				if st.Graphs != r.graphs {
					b.Fatalf("ran %d graphs, want %d", st.Graphs, r.graphs)
				}
			}
		})
	}
}

// BenchmarkSweepLocal measures the sweep coordinator end to end with
// in-process workers: plan (rank-range split), execute (each unit by direct
// call on its slot's goroutine), merge (BatchStats.Merge over completion
// order). One op sweeps all 32 768 labelled n = 6 graphs; the delta against
// BenchmarkRunBatch's gray variants is the coordination overhead a local
// sweep pays on top of the raw batch engine.
func BenchmarkSweepLocal(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("hash16/n=6/w=%d", workers), func(b *testing.B) {
			plan, err := sweep.SplitGrayRanks(engine.ShardSpec{Protocol: "hash16"}, 6, 0, 1<<15, 4*workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := sweep.Run(plan, sweep.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Stats.Graphs != 1<<15 {
					b.Fatalf("swept %d graphs", rep.Stats.Graphs)
				}
			}
		})
	}
}

// BenchmarkSweepTCP is BenchmarkSweepLocal over the network transport: the
// same plan, but units round-trip through `serve` daemons on loopback TCP
// (one daemon per worker slot, handshake included in the connection setup
// but amortized over the run). The delta against SweepLocal is the price of
// the JSON codec and a socket instead of a direct call — the number that says
// what a cross-machine fleet pays per unit before real network latency is
// added.
func BenchmarkSweepTCP(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("hash16/n=6/w=%d", workers), func(b *testing.B) {
			addrs := make([]string, workers)
			for i := range addrs {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				go sweep.Serve(l, sweep.ServeOptions{})
				addrs[i] = l.Addr().String()
			}
			plan, err := sweep.SplitGrayRanks(engine.ShardSpec{Protocol: "hash16"}, 6, 0, 1<<15, 4*workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := sweep.Run(plan, sweep.Options{Dial: addrs})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Stats.Graphs != 1<<15 {
					b.Fatalf("swept %d graphs", rep.Stats.Graphs)
				}
			}
		})
	}
}

// BenchmarkPowerSumAccumulator isolates the satellite that made the
// power-sum strawmen batchable: big.Int accumulation vs fixed-width limbs
// for one 16-node neighborhood, k = 3.
func BenchmarkPowerSumAccumulator(b *testing.B) {
	nbrs := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
	b.Run("bigint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sums := numeric.PowerSums(nbrs, 3)
			_ = sums
		}
	})
	b.Run("limbs", func(b *testing.B) {
		b.ReportAllocs()
		var acc numeric.PowerSumAccumulator
		for i := 0; i < b.N; i++ {
			acc.Reset(64, 3)
			acc.Add(nbrs...)
		}
	})
}

func BenchmarkLocalPhaseModes(b *testing.B) {
	g := gen.KTree(gen.NewRand(3), 2048, 4)
	p := &core.DegeneracyProtocol{K: 4}
	for _, m := range []struct {
		name  string
		sched engine.Scheduler
	}{{"sequential", engine.Serial{}}, {"parallel", engine.Chunked{}}, {"async", engine.Async{}}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.LocalPhase(g, p, m.sched)
			}
		})
	}
}

func BenchmarkDecoderAblation(b *testing.B) {
	n, k := 32, 3
	g := gen.RandomKDegenerate(gen.NewRand(4), n, k, true)
	p := &core.DegeneracyProtocol{K: k}
	tr := engine.LocalPhase(g, p, engine.Serial{})
	ld, err := core.NewLookupDecoder(n, k, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("newton", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Reconstruct(n, tr.Messages); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		pl := &core.DegeneracyProtocol{K: k, Decoder: ld}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Reconstruct(n, tr.Messages); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGraphAlgorithms(b *testing.B) {
	g := gen.Gnp(gen.NewRand(5), 512, 0.05)
	b.Run("degeneracy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Degeneracy()
		}
	})
	b.Run("hasSquare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.HasSquare()
		}
	})
	b.Run("hasTriangle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.HasTriangle()
		}
	})
	b.Run("diameter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Diameter()
		}
	})
}

func BenchmarkSketch(b *testing.B) {
	n := 64
	g := gen.ConnectedGnp(gen.NewRand(6), n, 0.06)
	sc := sketch.NewSketchConnectivity(n, 7)
	b.Run("encode", func(b *testing.B) {
		nbrs := g.Neighbors(1)
		for i := 0; i < b.N; i++ {
			sc.LocalMessage(n, 1, nbrs)
		}
	})
	tr := engine.LocalPhase(g, sc, engine.Chunked{})
	b.Run("decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.Decide(n, tr.Messages); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPartitionConnectivity(b *testing.B) {
	n := 256
	g := gen.ConnectedGnp(gen.NewRand(7), n, 0.02)
	for _, k := range []int{2, 8} {
		pc := sketch.NewIntervalPartition(n, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := pc.Run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCollisionSearch(b *testing.B) {
	s := collide.DegreeOnly()
	b.Run("n=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			collide.FindDecisionCollision(s.Local, (*graph.Graph).HasSquare, 5, nil)
		}
	})
	b.Run("n=6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			collide.FindDecisionCollision(s.Local, (*graph.Graph).HasTriangle, 6, nil)
		}
	})
}

func BenchmarkEnumerate(b *testing.B) {
	// The Gray-code engine: one edge toggle per graph, zero allocations.
	b.Run("n=6", func(b *testing.B) {
		b.ReportAllocs()
		count := 0
		visit := func(_ uint64, g graph.Small) bool {
			if g.IsConnected() {
				count++
			}
			return true
		}
		for i := 0; i < b.N; i++ {
			count = 0
			collide.EnumerateGraphsGray(6, visit)
		}
	})
	// The original per-mask graph construction, kept as the ablation.
	b.Run("legacy/n=6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			collide.EnumerateGraphs(6, func(_ uint64, g *graph.Graph) bool {
				if g.IsConnected() {
					count++
				}
				return true
			})
		}
	})
	// The reused-*Graph middle ground the collision searches run on: a
	// GraySource drain.
	b.Run("incremental/n=6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			src := collide.NewGraySource(6)
			for g := src.Next(); g != nil; g = src.Next() {
				if g.IsConnected() {
					count++
				}
			}
		}
	})
}

func BenchmarkReductions(b *testing.B) {
	g := gen.GreedySquareFree(gen.NewRand(8), 14, 0)
	b.Run("square/n=14", func(b *testing.B) {
		delta := &core.SquareReduction{Gamma: core.NewSquareOracle()}
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.RunReconstructor(g, delta, engine.Serial{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	g2 := gen.Gnp(gen.NewRand(9), 12, 0.3)
	b.Run("diameter/n=12", func(b *testing.B) {
		delta := &core.DiameterReduction{Gamma: core.NewDiameterOracle(3)}
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.RunReconstructor(g2, delta, engine.Serial{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	g3 := gen.RandomBipartite(gen.NewRand(10), 6, 6, 0.4)
	b.Run("triangle/n=12", func(b *testing.B) {
		delta := &core.TriangleReduction{Gamma: core.NewTriangleOracle()}
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.RunReconstructor(g3, delta, engine.Serial{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations from DESIGN.md §5 ---

func BenchmarkPowerSumArithmetic(b *testing.B) {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i*31 + 7
	}
	b.Run("bigint/k=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			numeric.PowerSums(ids, 3)
		}
	})
	b.Run("accumulator/k=3", func(b *testing.B) {
		var acc numeric.PowerSumAccumulator
		for i := 0; i < b.N; i++ {
			acc.Reset(ids[len(ids)-1], 3)
			acc.Add(ids...)
		}
	})
}

func BenchmarkCountFamilies(b *testing.B) {
	b.Run("sequential/n=6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			collide.Count(6)
		}
	})
	b.Run("parallel/n=6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			collide.CountParallel(6)
		}
	})
	b.Run("sequential/n=7", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			collide.Count(7)
		}
	})
	b.Run("parallel/n=7", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			collide.CountParallel(7)
		}
	})
}

func BenchmarkBitCodecs(b *testing.B) {
	b.Run("fixedwidth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bits.Writer
			for v := uint64(1); v <= 64; v++ {
				w.WriteUint(v, 12)
			}
		}
	})
	b.Run("eliasgamma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bits.Writer
			for v := uint64(1); v <= 64; v++ {
				w.WriteEliasGamma(v)
			}
		}
	})
	b.Run("eliasdelta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bits.Writer
			for v := uint64(1); v <= 64; v++ {
				w.WriteEliasDelta(v)
			}
		}
	})
}

func BenchmarkCongestRealization(b *testing.B) {
	g := gen.KTree(gen.NewRand(11), 128, 3)
	p := &core.DegeneracyProtocol{K: 3}
	b.Run("abstract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.LocalPhase(g, p, engine.Serial{})
		}
	})
	b.Run("congest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := congest.RunOneRound(g, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSketchBipartiteness(b *testing.B) {
	n := 32
	g := gen.Grid(4, 8)
	sb := sketch.NewSketchBipartiteness(n, 5)
	tr := engine.LocalPhase(g, sb, engine.Chunked{})
	b.Run("decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sb.Decide(n, tr.Messages); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Isomorphism-quotient plane (DESIGN.md sweep experiments, PR 7) ---

// BenchmarkAdjacencyKey measures the labelled-graph key codec on a mid-size
// generated graph — the hot path of the conformance stream digests and the
// canon differential tests.
func BenchmarkAdjacencyKey(b *testing.B) {
	g := gen.Gnp(gen.NewRand(3), 50, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(g.AdjacencyKey()) < 2 {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkCanonicalForm measures one individualization–refinement
// canonization at sweep scale (n = 8, random masks): the per-class cost the
// quotient plane pays once per isomorphism class instead of once per
// labelled graph.
func BenchmarkCanonicalForm(b *testing.B) {
	rng := gen.NewRand(5)
	const n = 8
	masks := make([]uint64, 1024)
	for i := range masks {
		masks[i] = rng.Uint64() & (1<<28 - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon.MustCanonical(n, masks[i%len(masks)])
	}
}

// BenchmarkCanonicalFormSymmetric canonizes the most symmetric n = 9 graphs,
// where the search cost is set by automorphism pruning: a search that
// visits every leaf pays at least |Aut| of them (9! for edgeless and
// complete). Each sub-benchmark fails if |Aut| comes out wrong.
func BenchmarkCanonicalFormSymmetric(b *testing.B) {
	const n = 9
	maskOf := func(adjacent func(u, v int) bool) uint64 {
		var mask uint64
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				if adjacent(u, v) {
					mask |= 1 << uint(graph.EdgeIndex(n, u, v))
				}
			}
		}
		return mask
	}
	for _, g := range []struct {
		name string
		mask uint64
		aut  uint64
	}{
		{"edgeless", 0, 362880},
		{"complete", maskOf(func(u, v int) bool { return true }), 362880},
		{"K1,8", maskOf(func(u, v int) bool { return u == 1 }), 40320},
		{"C9", maskOf(func(u, v int) bool { return v-u == 1 || v-u == n-1 }), 18},
		{"K3,3,3", maskOf(func(u, v int) bool { return (u-1)/3 != (v-1)/3 }), 1296},
	} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			var r canon.Result
			for i := 0; i < b.N; i++ {
				r = canon.MustCanonical(n, g.mask)
			}
			if r.AutOrder != g.aut {
				b.Fatalf("%s: |Aut| = %d, want %d", g.name, r.AutOrder, g.aut)
			}
		})
	}
}

// BenchmarkSweepCanonVsGray is the quotient plane's headline number: the
// canon side sweeps ALL 2^28 labelled n = 8 graphs by evaluating only the
// 12,346 class representatives (weighted), while the gray side is charged a
// 2^20-rank window — 1/256 of the space — because the full labelled sweep
// does not fit in a benchmark iteration. Per-graph rates are comparable, so
// wall-clock speedup for full coverage = 256 × (gray ns/op) / (canon ns/op);
// the evals/op metric makes the 2^28/12346 ≈ 21,743× evaluation reduction
// visible directly in the bench output.
func BenchmarkSweepCanonVsGray(b *testing.B) {
	shard := engine.ShardSpec{
		Protocol: "oracle-conn",
		Sched:    "serial",
		Config:   engine.Config{N: 8},
		Decide:   true,
	}
	total, err := canon.ClassCount(8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("canon/full-2^28", func(b *testing.B) {
		plan, err := sweep.SplitClasses(shard, 8, 0, 0, total, 4)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			rep, err := sweep.Run(plan, sweep.Options{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Stats.Graphs != 1<<28 {
				b.Fatalf("reconstituted %d labelled graphs, want 2^28", rep.Stats.Graphs)
			}
		}
		b.ReportMetric(float64(total), "evals/op")
	})
	b.Run("gray/window-2^20", func(b *testing.B) {
		plan, err := sweep.SplitGrayRanks(shard, 8, 0, 1<<20, 4)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			rep, err := sweep.Run(plan, sweep.Options{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Stats.Graphs != 1<<20 {
				b.Fatalf("swept %d graphs, want 2^20", rep.Stats.Graphs)
			}
		}
		b.ReportMetric(float64(uint64(1)<<20), "evals/op")
	})
}

// BenchmarkSweepCanonVector marries the two planes: the 12,346 n = 8 class
// representatives pulled as table-filled lane blocks through the weighted
// per-lane fold (vector) versus the scalar Next/Weight loop over the same
// table (scalar). Both reconstitute all 2^28 labelled graphs; the ns/class
// metric is per class representative actually evaluated. The /scalar and
// /vector name suffixes let cmd/benchreport pair the modes and attach a
// Welch t-test to the speedup. The n=8-window rows run the vector path over
// classes [total/4+1, total/2+3), whose blocks all start off a 64-class
// boundary, so every fill is a funnel shift of two table chunks. Vector
// rows must not allocate.
func BenchmarkSweepCanonVector(b *testing.B) {
	const n = 8
	classes, err := canon.Classes(n)
	if err != nil {
		b.Fatal(err)
	}
	total := uint64(len(classes))
	windowLo, windowHi := total/4+1, total/2+3
	var windowGraphs uint64
	for _, c := range classes[windowLo:windowHi] {
		windowGraphs += c.Weight
	}
	for _, proto := range []string{"oracle-diam3", "oracle-conn", "oracle-forest"} {
		for _, row := range []struct {
			name, mode     string
			lo, hi, graphs uint64
		}{
			{"n=8", "scalar", 0, 0, 1 << 28},
			{"n=8", "vector", 0, 0, 1 << 28},
			{"n=8-window", "vector", windowLo, windowHi, windowGraphs},
		} {
			b.Run(fmt.Sprintf("%s/%s/%s", proto, row.name, row.mode), func(b *testing.B) {
				p, ok := engine.New(proto, engine.Config{N: n})
				if !ok {
					b.Fatalf("%s not registered", proto)
				}
				bt := engine.NewBatch(p, engine.BatchOptions{
					Workers: 1, Decide: true, MaxN: n, NoVector: row.mode == "scalar",
				})
				defer bt.Close()
				if row.mode == "vector" && !bt.Vectorized() {
					b.Fatalf("%s did not engage the vector path", proto)
				}
				src, err := canon.NewClassSource(n, row.lo, row.hi)
				if err != nil {
					b.Fatal(err)
				}
				run := func() {
					src.Reset()
					if st := bt.Run(src); st.Graphs != row.graphs {
						b.Fatalf("reconstituted %d labelled graphs, want %d", st.Graphs, row.graphs)
					}
				}
				run() // warm the scratch
				if row.mode == "vector" {
					if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
						b.Fatalf("vector run allocates %.0f times, want 0", allocs)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(src.Len()), "ns/class")
			})
		}
	}
}

// BenchmarkClassSourceOpen is the per-unit cost of a "canon" unit before any
// class is evaluated: opening a source over a window of the cached n = 8
// table. Sources slice the shared table in place, so ns/op and B/op stay
// flat whatever the window or table size (one allocation: the source).
func BenchmarkClassSourceOpen(b *testing.B) {
	const n = 8
	total, err := canon.ClassCount(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := canon.NewClassSource(n, total/4, total/2)
		if err != nil {
			b.Fatal(err)
		}
		if src.Len() != int(total/2-total/4) {
			b.Fatalf("window holds %d classes, want %d", src.Len(), total/2-total/4)
		}
	}
}
