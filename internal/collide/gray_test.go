package collide

import (
	"testing"

	"refereenet/internal/graph"
)

// TestGrayVisitsSameMaskSet checks that the Gray-code enumeration covers
// exactly the mask set of the lexicographic one — each mask once, with the
// graph state matching the mask at every step.
func TestGrayVisitsSameMaskSet(t *testing.T) {
	for n := 0; n <= 5; n++ {
		total := n * (n - 1) / 2
		want := uint64(1) << uint(total)
		seen := make([]bool, want)
		var visits uint64
		EnumerateGraphsGray(n, func(mask uint64, g graph.Small) bool {
			if mask >= want {
				t.Fatalf("n=%d: mask %d out of range", n, mask)
			}
			if seen[mask] {
				t.Fatalf("n=%d: mask %d visited twice", n, mask)
			}
			seen[mask] = true
			visits++
			if got := g.EdgeMask(); got != mask {
				t.Fatalf("n=%d: graph state %b does not match mask %b", n, got, mask)
			}
			return true
		})
		if visits != want {
			t.Fatalf("n=%d: visited %d graphs, want %d", n, visits, want)
		}
	}
}

// TestGrayConsecutiveDifferByOneEdge pins the engine's defining property:
// consecutive visits toggle exactly one edge.
func TestGrayConsecutiveDifferByOneEdge(t *testing.T) {
	prev := uint64(0)
	first := true
	EnumerateGraphsGray(5, func(mask uint64, _ graph.Small) bool {
		if !first {
			if diff := mask ^ prev; diff == 0 || diff&(diff-1) != 0 {
				t.Fatalf("masks %b -> %b differ in more than one bit", prev, mask)
			}
		}
		first = false
		prev = mask
		return true
	})
}

// TestGrayRangeShardsPartition checks that contiguous rank shards — the
// CountParallel decomposition — partition the full mask set.
func TestGrayRangeShardsPartition(t *testing.T) {
	n := 5
	total := uint64(1) << uint(n*(n-1)/2)
	seen := make([]bool, total)
	bounds := []uint64{0, 17, 18, 500, total}
	for i := 0; i+1 < len(bounds); i++ {
		err := EnumerateGraphsGrayRange(n, bounds[i], bounds[i+1], func(mask uint64, g graph.Small) bool {
			if seen[mask] {
				t.Fatalf("mask %d visited by two shards", mask)
			}
			seen[mask] = true
			if got := g.EdgeMask(); got != mask {
				t.Fatalf("shard graph state %b does not match mask %b", got, mask)
			}
			return true
		})
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", bounds[i], bounds[i+1], err)
		}
	}
	for mask, ok := range seen {
		if !ok {
			t.Fatalf("mask %d never visited", mask)
		}
	}
}

func TestGrayEarlyStop(t *testing.T) {
	count := 0
	EnumerateGraphsGray(4, func(_ uint64, _ graph.Small) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("visited %d graphs after early stop, want 10", count)
	}
}

// TestIncrementalMatchesMask checks the reused-graph GraySource agrees with
// FromEdgeMask at every step and visits every graph exactly once. The empty
// vertex set is out of its domain and must be refused.
func TestIncrementalMatchesMask(t *testing.T) {
	if _, err := GraySourceForRange(0, 0, 1); err == nil {
		t.Fatal("n=0: GraySourceForRange accepted an empty vertex set")
	}
	for _, n := range []int{1, 4, 5} {
		visits := uint64(0)
		src := NewGraySource(n)
		for g := src.Next(); g != nil; g = src.Next() {
			visits++
			if !g.Equal(graph.FromEdgeMask(n, src.Mask())) {
				t.Fatalf("n=%d mask=%d: incremental graph diverged: %v", n, src.Mask(), g)
			}
		}
		if want := uint64(1) << uint(n*(n-1)/2); visits != want {
			t.Fatalf("n=%d: visited %d graphs, want %d", n, visits, want)
		}
	}
}

// TestCountMatchesLegacyEnumeration recomputes the family counts with the
// original per-mask graph construction and compares — the end-to-end
// differential test of the rewired Count.
func TestCountMatchesLegacyEnumeration(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		want := FamilyCounts{N: n}
		half := n / 2
		EnumerateGraphs(n, func(_ uint64, g *graph.Graph) bool {
			want.All++
			if !g.HasSquare() {
				want.SquareFree++
			}
			bip := true
			for _, e := range g.Edges() {
				if (e[0] <= half) == (e[1] <= half) {
					bip = false
					break
				}
			}
			if bip {
				want.Bipartite++
			}
			if g.IsForest() {
				want.Forests++
			}
			if d, _ := g.Degeneracy(); d <= 2 {
				want.Degen2++
			}
			if g.IsConnected() {
				want.Connected++
			}
			return true
		})
		if got := Count(n); got != want {
			t.Errorf("n=%d: Count %+v, legacy enumeration %+v", n, got, want)
		}
	}
}

// Disjoint rank slices counted independently must Merge into the exact
// full-space counts — the contract that lets a fleet split one n across
// machines (cmd/collide -ranks).
func TestCountRangeSlicesMergeToFullCount(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		want := Count(n)
		total := uint64(1) << uint(n*(n-1)/2)
		bounds := []uint64{0, 1, total / 3, total / 2, total - 2, total}
		got := FamilyCounts{N: n}
		for i := 0; i+1 < len(bounds); i++ {
			fc, err := CountRange(n, bounds[i], bounds[i+1])
			if err != nil {
				t.Fatalf("CountRange(%d, %d, %d): %v", n, bounds[i], bounds[i+1], err)
			}
			got.Merge(fc)
		}
		if got != want {
			t.Errorf("n=%d: merged slices %+v, full count %+v", n, got, want)
		}
	}
	// Merge order must not matter.
	a, err := CountRange(4, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountRange(4, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	ab := FamilyCounts{N: 4}
	ab.Merge(a)
	ab.Merge(b)
	ba := FamilyCounts{N: 4}
	ba.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Errorf("FamilyCounts.Merge not commutative: %+v vs %+v", ab, ba)
	}
}

func TestParseRankRange(t *testing.T) {
	if lo, hi, err := ParseRankRange("", 5); err != nil || lo != 0 || hi != 1024 {
		t.Errorf(`ParseRankRange("", 5) = %d, %d, %v; want full space [0,1024)`, lo, hi, err)
	}
	if lo, hi, err := ParseRankRange("3:40", 4); err != nil || lo != 3 || hi != 40 {
		t.Errorf(`ParseRankRange("3:40", 4) = %d, %d, %v`, lo, hi, err)
	}
	for _, bad := range []struct {
		s string
		n int
	}{
		{"", -3}, {"", 0}, {"", MaxEnumerationN + 1}, // n out of range
		{"17", 5}, {"a:b", 5}, {":", 5}, // malformed
		{"10:5", 5}, {"0:1025", 5}, // inverted / past the space
	} {
		if _, _, err := ParseRankRange(bad.s, bad.n); err == nil {
			t.Errorf("ParseRankRange(%q, %d) accepted", bad.s, bad.n)
		}
	}
}

// TestCountAllocFree is the zero-allocation guard for the Gray-code
// predicate loop: a full Count pass (32 graphs at n=4, 1024 at n=5) must not
// touch the heap at all.
func TestCountAllocFree(t *testing.T) {
	var sink FamilyCounts
	for _, n := range []int{4, 5} {
		allocs := testing.AllocsPerRun(10, func() {
			sink = Count(n)
		})
		if allocs != 0 {
			t.Errorf("Count(%d) allocated %.1f objects per run, want 0", n, allocs)
		}
	}
	_ = sink
}

// TestGrayEnumerationAllocFree guards the generic visitor path: beyond the
// caller's own closure, EnumerateGraphsGray allocates nothing per graph.
func TestGrayEnumerationAllocFree(t *testing.T) {
	connected := 0
	visit := func(_ uint64, g graph.Small) bool {
		if g.IsConnected() {
			connected++
		}
		return true
	}
	allocs := testing.AllocsPerRun(10, func() {
		connected = 0
		EnumerateGraphsGray(5, visit)
	})
	if allocs != 0 {
		t.Errorf("EnumerateGraphsGray(5) allocated %.1f objects per run, want 0", allocs)
	}
	if connected != 728 {
		t.Errorf("connected graphs on 5 vertices = %d, want 728", connected)
	}
}
