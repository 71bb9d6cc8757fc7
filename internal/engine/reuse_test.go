package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"refereenet/internal/engine"
)

// grayUnit is a gray n = 6 unit of the given number of 64-rank blocks.
func grayUnit(protocol string, decide bool, blocks uint64) engine.ShardSpec {
	return engine.ShardSpec{
		Protocol: protocol,
		Config:   engine.Config{N: 6},
		Decide:   decide,
		Source:   engine.SourceSpec{Kind: "gray", N: 6, Lo: 1024, Hi: 1024 + 64*blocks},
	}
}

// shardCost returns the allocations and bytes of one ExecuteShard of spec
// after a warm-up call, failing the test if the unit errs.
func shardCost(t *testing.T, spec engine.ShardSpec) (allocs, bytes float64) {
	t.Helper()
	run := func() {
		if _, err := engine.ExecuteShard(spec); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs = testing.AllocsPerRun(20, run)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// A steady-state unit's set-up allocates nothing but its source header
// and, for a protocol that builds its kernel per instance, that instance
// and its closures: the batch and its scratch come from pools and the
// Gray source shares its order's edge table.
func TestExecuteShardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, tc := range []struct {
		name            string
		spec            engine.ShardSpec
		maxAllocs, maxB float64
	}{
		{"gray/hash16/1-block", grayUnit("hash16", false, 1), 1, 128},
		{"gray/hash16/4-block", grayUnit("hash16", false, 4), 1, 128},
		{"gray/oracle-conn-decide/1-block", grayUnit("oracle-conn", true, 1), 4, 256},
		{"gray/oracle-conn-decide/4-block", grayUnit("oracle-conn", true, 4), 4, 256},
		{"canon/oracle-conn-decide/window", engine.ShardSpec{
			Protocol: "oracle-conn", Config: engine.Config{N: 6}, Decide: true,
			Source: engine.SourceSpec{Kind: "canon", N: 6, Lo: 20, Hi: 150},
		}, 4, 768}, // the 640 B class source and the protocol instance
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, b := shardCost(t, tc.spec)
			t.Logf("%.1f allocs, %.0f B per unit", allocs, b)
			if allocs > tc.maxAllocs || b > tc.maxB {
				t.Errorf("ExecuteShard: %.1f allocs and %.0f B per unit, want ≤ %.0f and ≤ %.0f B", allocs, b, tc.maxAllocs, tc.maxB)
			}
		})
	}
}

// reuseSpecs mixes every scratch shape a pooled scratch can pass between:
// vector gray units of every order 4…9 (unaligned, so each starts with a
// short head block), a scalar gray unit under a scheduler, a weighted canon
// unit, and a 64-vertex k-tree unit whose MaxN grows the message vectors.
func reuseSpecs() []engine.ShardSpec {
	var specs []engine.ShardSpec
	for n := 4; n <= 9; n++ {
		lo, hi := uint64(37), uint64(37+64*3+5)
		if n == 4 { // the whole space is one block
			lo, hi = 3, 61
		}
		for _, p := range []string{"oracle-conn", "oracle-diam3"} {
			specs = append(specs, engine.ShardSpec{
				Protocol: p, Config: engine.Config{N: n}, Decide: true,
				Source: engine.SourceSpec{Kind: "gray", N: n, Lo: lo, Hi: hi},
			})
		}
	}
	return append(specs,
		engine.ShardSpec{
			Protocol: "oracle-conn", Sched: "chunked", Config: engine.Config{N: 6}, Decide: true,
			Source: engine.SourceSpec{Kind: "gray", N: 6, Lo: 100, Hi: 400},
		},
		engine.ShardSpec{
			Protocol: "oracle-conn", Config: engine.Config{N: 7}, Decide: true,
			Source: engine.SourceSpec{Kind: "canon", N: 7, Lo: 5, Hi: 300},
		},
		engine.ShardSpec{
			Protocol: "degeneracy", Config: engine.Config{N: 64, K: 3}, Decide: true,
			Source: engine.SourceSpec{Kind: "family", Family: "ktree", N: 64, K: 3, Seed: 9, Count: 6},
		},
		grayUnit("hash16", false, 2),
	)
}

// Units that share pooled scratch, one after another or on two goroutines
// at once, give exactly the stats each computes alone on fresh scratch.
func TestExecuteShardReuseIsolation(t *testing.T) {
	specs := reuseSpecs()
	want := make([]engine.BatchStats, len(specs))
	for i, spec := range specs {
		// Two collections empty every sync.Pool, so each unit here runs
		// on scratch no other unit has touched.
		runtime.GC()
		runtime.GC()
		st, err := engine.ExecuteShard(spec)
		if err != nil {
			t.Fatalf("%s %+v: %v", spec.Protocol, spec.Source, err)
		}
		if st.Graphs == 0 {
			t.Fatalf("%s %+v swept no graphs", spec.Protocol, spec.Source)
		}
		want[i] = st
	}
	check := func(order []int) error {
		for _, i := range order {
			got, err := engine.ExecuteShard(specs[i])
			if err != nil {
				return err
			}
			if got != want[i] {
				return fmt.Errorf("%s %+v: got %+v after reuse, want %+v", specs[i].Protocol, specs[i].Source, got, want[i])
			}
		}
		return nil
	}
	orders := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var order []int
		for round := 0; round < 3; round++ {
			order = append(order, rng.Perm(len(specs))...)
		}
		for i := len(specs) - 1; i >= 0; i-- {
			order = append(order, i)
		}
		return order
	}
	t.Run("one-goroutine", func(t *testing.T) {
		if err := check(orders(1)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("two-goroutines", func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = check(orders(int64(g + 2)))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// A closed Batch has handed its scratch back to the pool, so using it
// again must fail loudly instead of running on scratch another batch may
// hold. Close is idempotent: a second Close must not pool the scratch
// twice, or two later batches would share one.
func TestBatchUseAfterClose(t *testing.T) {
	p, ok := engine.New("hash16", engine.Config{})
	if !ok {
		t.Fatal("hash16 not registered")
	}
	spec := grayUnit("hash16", false, 1).Source
	for _, workers := range []int{1, 2} {
		b := engine.NewBatch(p, engine.BatchOptions{Workers: workers, MaxN: 6})
		b.Close()
		b.Close()
		a, c := engine.NewBatch(p, engine.BatchOptions{Workers: 1}), engine.NewBatch(p, engine.BatchOptions{Workers: 1})
		if engine.ScratchOf(a) == engine.ScratchOf(c) {
			t.Errorf("workers=%d: two batches share one scratch after a double Close", workers)
		}
		a.Close()
		c.Close()
		for name, run := range map[string]func(src engine.Source){
			"Run":       func(src engine.Source) { b.Run(src) },
			"RunShards": func(src engine.Source) { b.RunShards(src) },
		} {
			src, err := engine.ResolveSource(spec)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != "engine: Batch used after Close" {
						t.Errorf("workers=%d: %s after Close panicked with %v, want the use-after-Close panic", workers, name, r)
					}
				}()
				run(src)
			}()
		}
	}
}
