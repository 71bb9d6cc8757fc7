package engine_test

import (
	"path/filepath"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/canon"
	"refereenet/internal/collide"
	"refereenet/internal/core"
	"refereenet/internal/corpus"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

// expectedStats folds per-graph LocalPhase accounting into the totals a
// batch run must report.
func expectedStats(p engine.Local, graphs []*graph.Graph) engine.BatchStats {
	var st engine.BatchStats
	for _, g := range graphs {
		t := engine.LocalPhase(g, p, engine.Serial{})
		st.Graphs++
		st.TotalBits += uint64(t.TotalBits())
		if t.MaxBits() > st.MaxBits {
			st.MaxBits = t.MaxBits()
		}
		if g.N() > st.MaxN {
			st.MaxN = g.N()
		}
	}
	return st
}

func forestCorpus(count int) []*graph.Graph {
	rng := gen.NewRand(11)
	graphs := make([]*graph.Graph, count)
	for i := range graphs {
		graphs[i] = gen.RandomForest(rng, 20+i%13, 3)
	}
	return graphs
}

func TestBatchMatchesPerGraphAccounting(t *testing.T) {
	graphs := forestCorpus(200)
	p := core.ForestProtocol{}
	want := expectedStats(p, graphs)
	for _, workers := range []int{1, 4} {
		src := engine.NewSliceSource(graphs)
		got := engine.RunBatch(p, src, engine.BatchOptions{Workers: workers})
		if got != want {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, got, want)
		}
	}
}

func TestBatchReusableAcrossRuns(t *testing.T) {
	graphs := forestCorpus(100)
	p := core.ForestProtocol{}
	want := expectedStats(p, graphs)
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 3})
	defer b.Close()
	src := engine.NewSliceSource(graphs)
	for run := 0; run < 3; run++ {
		src.Reset()
		if got := b.Run(src); got != want {
			t.Fatalf("run %d: stats %+v, want %+v", run, got, want)
		}
	}
}

func TestBatchDeciderTallies(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(6),               // connected
		gen.Cycle(5),              // connected
		gen.DisjointCliques(2, 3), // not connected
		gen.Complete(4),           // connected
		graph.New(3),              // 3 isolated vertices
	}
	d, _ := engine.New("oracle-conn", engine.Config{})
	st := engine.RunBatch(d, engine.NewSliceSource(graphs), engine.BatchOptions{Workers: 2, Decide: true})
	if st.Accepted != 3 || st.Rejected != 2 || st.Errors != 0 {
		t.Errorf("verdicts accepted=%d rejected=%d errors=%d, want 3/2/0",
			st.Accepted, st.Rejected, st.Errors)
	}
}

func TestBatchGraySourceSerialEqualsShardedRanges(t *testing.T) {
	const n = 5
	total := uint64(1) << uint(n*(n-1)/2)
	p, _ := engine.New("degree", engine.Config{})

	full := engine.RunBatch(p, collide.NewGraySource(n), engine.BatchOptions{Workers: 1})
	if full.Graphs != total {
		t.Fatalf("full gray run saw %d graphs, want %d", full.Graphs, total)
	}

	// A source whose Next reuses one graph (every BlockSource) or pairs with
	// Weight (canon) must stay on one goroutine under a worker pool and
	// still be correct — on the block path and on the per-graph loop, where
	// a shared reused graph would race. Every source below covers all 2^10
	// labelled graphs, so each must reproduce the gray totals.
	path := filepath.Join(t.TempDir(), "n5.corpus")
	masks := make([]uint64, total)
	for i := range masks {
		masks[i] = uint64(i)
	}
	if err := corpus.WriteFile(path, n, masks); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() (engine.Source, error)
	}{
		{"gray", func() (engine.Source, error) { return collide.NewGraySource(n), nil }},
		{"canon", func() (engine.Source, error) {
			src, err := canon.NewClassSource(n, 0, 0)
			return src, err
		}},
		{"file", func() (engine.Source, error) {
			src, err := corpus.NewFileSource(path, 0, 0)
			return src, err
		}},
	} {
		for _, noVector := range []bool{false, true} {
			src, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			forced := engine.RunBatch(p, src, engine.BatchOptions{Workers: 8, NoVector: noVector})
			if forced != full {
				t.Errorf("%s NoVector=%v: workers=8 stats %+v, want %+v", tc.name, noVector, forced, full)
			}
		}
	}

	// Pre-split rank ranges parallelize without sharing the reused graph.
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 4})
	defer b.Close()
	bounds := []uint64{0, total / 5, total / 2, total - 3, total}
	srcs := make([]engine.Source, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		srcs = append(srcs, collide.NewGraySourceRange(n, bounds[i], bounds[i+1]))
	}
	sharded := b.RunShards(srcs...)
	if sharded != full {
		t.Errorf("sharded stats %+v, want %+v", sharded, full)
	}
}

func TestBatchWithIntraGraphScheduler(t *testing.T) {
	graphs := forestCorpus(80)
	p := core.ForestProtocol{}
	want := expectedStats(p, graphs)
	for _, s := range []engine.Scheduler{engine.Chunked{Workers: 2}, engine.Async{Seed: 3}} {
		for _, workers := range []int{1, 3} {
			got := engine.RunBatch(p, engine.NewSliceSource(graphs),
				engine.BatchOptions{Workers: workers, Sched: s})
			if got != want {
				t.Errorf("sched=%s workers=%d: stats %+v, want %+v", s.Name(), workers, got, want)
			}
		}
	}
}

func TestBatchMaxNPreSizedAllocFree(t *testing.T) {
	// With the MaxN hint the scratch (including the Sized-protocol arena) is
	// pre-sized at NewBatch time, so runs are allocation-free without an
	// explicit warm-up pass by the caller.
	graphs := forestCorpus(64)
	p := core.ForestProtocol{}
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, MaxN: 32})
	defer b.Close()
	src := engine.NewSliceSource(graphs)
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset()
		b.Run(src)
	})
	if allocs != 0 {
		t.Errorf("pre-sized batch run allocated %.1f objects, want 0", allocs)
	}
}

func TestBatchOnTranscript(t *testing.T) {
	graphs := forestCorpus(50)
	p := core.ForestProtocol{}
	seen := 0
	bitsSum := 0
	st := engine.RunBatch(p, engine.NewSliceSource(graphs), engine.BatchOptions{
		Workers: 1,
		OnTranscript: func(g *graph.Graph, tr *engine.Transcript) {
			seen++
			bitsSum += tr.TotalBits()
			if tr.N != g.N() {
				t.Errorf("transcript n=%d for graph n=%d", tr.N, g.N())
			}
		},
	})
	if seen != len(graphs) {
		t.Errorf("callback ran %d times, want %d", seen, len(graphs))
	}
	if uint64(bitsSum) != st.TotalBits {
		t.Errorf("callback bits %d != stats %d", bitsSum, st.TotalBits)
	}
}

// The buffered (arena) path and the plain path must produce identical
// accounting: ForestProtocol implements BufferedLocal, so wrap it to hide
// the optional interface and compare.
func TestBufferedPathMatchesPlainPath(t *testing.T) {
	graphs := forestCorpus(120)
	p := core.ForestProtocol{}
	buffered := engine.RunBatch(p, engine.NewSliceSource(graphs), engine.BatchOptions{Workers: 1})
	plain := engine.RunBatch(hideBuffered{p}, engine.NewSliceSource(graphs), engine.BatchOptions{Workers: 1})
	if buffered != plain {
		t.Errorf("buffered %+v != plain %+v", buffered, plain)
	}
}

// hideBuffered forwards LocalMessage but not AppendLocalMessage, forcing the
// batch engine onto the allocating path.
type hideBuffered struct{ p engine.Local }

func (h hideBuffered) LocalMessage(n, id int, nbrs []int) bits.String {
	return h.p.LocalMessage(n, id, nbrs)
}

func TestBatchSerialAllocFree(t *testing.T) {
	graphs := forestCorpus(64)
	p := core.ForestProtocol{}
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1})
	defer b.Close()
	src := engine.NewSliceSource(graphs)
	src.Reset()
	b.Run(src) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset()
		b.Run(src)
	})
	if allocs != 0 {
		t.Errorf("steady-state batch run allocated %.1f objects, want 0", allocs)
	}
}

// Theorem 5's local phase allocates nothing either: the degeneracy and
// generalized protocols are BufferedLocal, with power sums in machine words,
// so a pre-sized serial batch over 64-vertex 3-trees runs at 0 allocs per
// graph. The same corpus must also account exactly as the plain path does.
func TestBatchDegeneracyAllocFree(t *testing.T) {
	rng := gen.NewRand(21)
	graphs := make([]*graph.Graph, 16)
	for i := range graphs {
		graphs[i] = gen.KTree(rng, 64, 3)
	}
	for _, p := range []engine.Local{&core.DegeneracyProtocol{K: 3}, &core.GeneralizedDegeneracyProtocol{K: 3}} {
		b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, MaxN: 64})
		src := engine.NewSliceSource(graphs)
		var st engine.BatchStats
		allocs := testing.AllocsPerRun(10, func() {
			src.Reset()
			st = b.Run(src)
		})
		b.Close()
		if perGraph := allocs / float64(len(graphs)); perGraph != 0 {
			t.Errorf("%T: batch run allocated %.2f objects per graph, want 0", p, perGraph)
		}
		if want := expectedStats(p, graphs); st != want {
			t.Errorf("%T: stats %+v, want %+v", p, st, want)
		}
	}
}
