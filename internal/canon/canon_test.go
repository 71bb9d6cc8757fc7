package canon

import (
	"math/bits"
	"math/rand"
	"testing"

	"refereenet/internal/graph"
)

// a000088 is OEIS A000088: the number of graphs on n unlabelled vertices.
var a000088 = []uint64{1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668}

// censusTop is the largest n the class-table tests build: 9, or 8 under
// -short, which keeps the race job off the n = 9 table (~1 s on two cores,
// several times that under -race).
func censusTop() int {
	if testing.Short() {
		return 8
	}
	return 9
}

func TestClassCensusMatchesA000088(t *testing.T) {
	for n := 0; n <= censusTop(); n++ {
		got, err := ClassCount(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != a000088[n] {
			t.Errorf("ClassCount(%d) = %d, want A000088(%d) = %d", n, got, n, a000088[n])
		}
	}
}

// TestOrbitWeightSum pins the orbit–stabilizer identity the weighted sweep
// path stands on: Σ over classes of n!/|Aut| must equal 2^C(n,2) exactly.
func TestOrbitWeightSum(t *testing.T) {
	for n := 1; n <= censusTop(); n++ {
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, c := range classes {
			sum += c.Weight
		}
		if want := uint64(1) << uint(n*(n-1)/2); sum != want {
			t.Errorf("n=%d: Σ orbit weights = %d, want 2^C(n,2) = %d", n, sum, want)
		}
	}
}

// relabel applies the permutation perm (0-based: new label of vertex i is
// perm[i]) to the edge mask of an n-vertex graph.
func relabel(n int, mask uint64, perm []int) uint64 {
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		u, v := graph.EdgePair(n, bits.TrailingZeros64(m))
		a, b := perm[u-1]+1, perm[v-1]+1
		out |= 1 << uint(graph.EdgeIndex(n, a, b))
	}
	return out
}

// bruteCanonical is the oracle implementation: minimum relabelled mask over
// all n! permutations, |Aut| = number of permutations fixing the mask.
func bruteCanonical(n int, mask uint64) Result {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := ^uint64(0)
	var aut uint64
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			m := relabel(n, mask, perm)
			if m < best {
				best = m
			}
			if m == mask {
				aut++
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	if n == 0 {
		best = 0
		aut = 1
	}
	return Result{Canon: best, AutOrder: aut}
}

// TestCanonicalAgainstBruteForce checks Canonical against the all-
// permutations oracle, exhaustively for n ≤ 5. The two algorithms may pick
// different representatives (I-R minimizes over refinement-tree leaves, the
// oracle over all of Sₙ), so the contract is: identical automorphism-group
// order on every mask, and identical partition of the labelled space — the
// map between brute-force forms and I-R forms must be a bijection.
func TestCanonicalAgainstBruteForce(t *testing.T) {
	for n := 2; n <= 5; n++ {
		edges := uint(n * (n - 1) / 2)
		bruteToIR := map[uint64]uint64{}
		irToBrute := map[uint64]uint64{}
		for mask := uint64(0); mask < 1<<edges; mask++ {
			got := MustCanonical(n, mask)
			want := bruteCanonical(n, mask)
			if got.AutOrder != want.AutOrder {
				t.Fatalf("n=%d mask=%#x: |Aut| = %d, brute force says %d", n, mask, got.AutOrder, want.AutOrder)
			}
			if prev, ok := bruteToIR[want.Canon]; ok && prev != got.Canon {
				t.Fatalf("n=%d: brute class %#x maps to I-R forms %#x and %#x (Canonical splits a class)", n, want.Canon, prev, got.Canon)
			}
			if prev, ok := irToBrute[got.Canon]; ok && prev != want.Canon {
				t.Fatalf("n=%d: I-R form %#x covers brute classes %#x and %#x (Canonical merges classes)", n, got.Canon, prev, want.Canon)
			}
			bruteToIR[want.Canon] = got.Canon
			irToBrute[got.Canon] = want.Canon
		}
		if len(bruteToIR) != len(irToBrute) {
			t.Fatalf("n=%d: %d brute classes vs %d I-R classes", n, len(bruteToIR), len(irToBrute))
		}
	}
}

// TestBruteForceClassCensus is the independent class count: bucket every
// n ≤ 6 labelled graph by brute-force canonical form and compare class
// counts, orbit sizes, AND the incremental generator's representative set —
// cross-checked through graph.AdjacencyKey so the census also exercises the
// key path end to end.
func TestBruteForceClassCensus(t *testing.T) {
	for n := 1; n <= 6; n++ {
		edges := uint(n * (n - 1) / 2)
		orbit := map[uint64]uint64{} // brute canon mask → labelled orbit size
		for mask := uint64(0); mask < 1<<edges; mask++ {
			orbit[bruteCanonical(n, mask).Canon]++
		}
		if uint64(len(orbit)) != a000088[n] {
			t.Fatalf("n=%d: brute-force census found %d classes, want %d", n, len(orbit), a000088[n])
		}
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(classes) != len(orbit) {
			t.Fatalf("n=%d: generator emits %d classes, brute force %d", n, len(classes), len(orbit))
		}
		used := map[uint64]bool{}
		keys := map[string]bool{}
		for _, c := range classes {
			// The representative's own brute-force form locates its class in
			// the oracle's census; every class must be hit exactly once with
			// a matching orbit size.
			bf := bruteCanonical(n, c.Mask).Canon
			want, ok := orbit[bf]
			if !ok {
				t.Errorf("n=%d: generator representative %#x is in no brute-force class", n, c.Mask)
				continue
			}
			if used[bf] {
				t.Errorf("n=%d: two generator representatives land in brute-force class %#x", n, bf)
			}
			used[bf] = true
			if c.Weight != want {
				t.Errorf("n=%d class %#x: weight %d, brute-force orbit size %d", n, c.Mask, c.Weight, want)
			}
			// Distinct representatives must be distinct labelled graphs under
			// the AdjacencyKey codec too — the cross-check format of the
			// differential tests.
			key := graph.FromEdgeMask(n, c.Mask).AdjacencyKey()
			if keys[key] {
				t.Errorf("n=%d: AdjacencyKey collision on %q", n, key)
			}
			keys[key] = true
		}
	}
}

// TestCanonicalIdempotent: the canonical form of a canonical form is itself.
func TestCanonicalIdempotent(t *testing.T) {
	for n := 2; n <= 7; n++ {
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			r := MustCanonical(n, c.Mask)
			if r.Canon != c.Mask {
				t.Fatalf("n=%d: representative %#x canonizes to %#x, not itself", n, c.Mask, r.Canon)
			}
		}
	}
}

func TestCanonicalValidation(t *testing.T) {
	if _, err := Canonical(11, 0); err == nil {
		t.Error("n=11 must be rejected")
	}
	if _, err := Canonical(-1, 0); err == nil {
		t.Error("n=-1 must be rejected")
	}
	if _, err := Canonical(4, 1<<6); err == nil {
		t.Error("mask bit beyond C(4,2)=6 must be rejected")
	}
	if r, err := Canonical(1, 0); err != nil || r.AutOrder != 1 {
		t.Errorf("n=1: %+v, %v", r, err)
	}
}

func TestClassSourceStreamsAllClasses(t *testing.T) {
	src, err := NewClassSource(6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 156 {
		t.Fatalf("n=6 source holds %d classes, want 156", src.Len())
	}
	var count int
	var weightSum uint64
	for g := src.Next(); g != nil; g = src.Next() {
		count++
		weightSum += src.Weight()
		if got := g.EdgeMask(); got != src.Mask() {
			t.Fatalf("class %d: reused graph has mask %#x, source says %#x", count, got, src.Mask())
		}
	}
	if count != 156 || weightSum != 1<<15 {
		t.Errorf("streamed %d classes with weight sum %d, want 156 and 2^15", count, weightSum)
	}
}

func BenchmarkCanonicalForm(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 8
	masks := make([]uint64, 1024)
	for i := range masks {
		masks[i] = rng.Uint64() & (1<<28 - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustCanonical(n, masks[i%len(masks)])
	}
}
