package canon

import (
	"math/bits"
	"math/rand"
	"testing"

	"refereenet/internal/graph"
)

// exhaustiveCanonical is the individualization–refinement search without
// automorphism pruning, over the same refine: it visits every leaf, takes
// the minimum relabelled mask, and counts the leaves achieving it — Aut(g)
// acts freely on the leaves and keeps their masks, so that count is |Aut|.
// Canonical must match it exactly, form and order, because pruning skips
// only leaves whose masks it has already seen.
func exhaustiveCanonical(n int, mask uint64) Result {
	if n <= 1 {
		return Result{Canon: 0, AutOrder: 1}
	}
	var s searcher
	s.init(n, mask)
	var best, count uint64
	var walk func(p partition)
	walk = func(p partition) {
		s.refine(&p)
		target := -1
		for i := 0; i < n; i++ {
			if !p.cellEnd[i] {
				target = i
				break
			}
		}
		if target < 0 {
			var pos [MaxN]uint8
			for i := 0; i < n; i++ {
				pos[p.order[i]] = uint8(i)
			}
			var leaf uint64
			for m := mask; m != 0; m &= m - 1 {
				e := s.tab.ends[bits.TrailingZeros64(m)]
				leaf |= 1 << s.tab.index[pos[e[0]]][pos[e[1]]]
			}
			switch {
			case count == 0 || leaf < best:
				best, count = leaf, 1
			case leaf == best:
				count++
			}
			return
		}
		end := target
		for !p.cellEnd[end] {
			end++
		}
		for j := target; j <= end; j++ {
			q := p
			v := q.order[j]
			copy(q.order[target+1:j+1], p.order[target:j])
			q.order[target] = v
			q.cellEnd[target] = true
			walk(q)
		}
	}
	walk(s.rootPartition())
	return Result{Canon: best, AutOrder: count}
}

// maskOf returns the n-vertex edge mask holding {u, v} (0-based, u < v)
// exactly when adjacent(u, v).
func maskOf(n int, adjacent func(u, v int) bool) uint64 {
	var mask uint64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if adjacent(u, v) {
				mask |= 1 << uint(graph.EdgeIndex(n, u+1, v+1))
			}
		}
	}
	return mask
}

// symmetricGraphs are highly symmetric graphs at n = 9 and 10: the cases
// where the unpruned search visits at least |Aut| leaves.
var symmetricGraphs = []struct {
	name string
	n    int
	mask uint64
	aut  uint64
}{
	{"edgeless9", 9, 0, 362880},
	{"complete9", 9, 1<<36 - 1, 362880},
	{"K1,8", 9, maskOf(9, func(u, v int) bool { return u == 0 }), 40320},
	{"C9", 9, maskOf(9, func(u, v int) bool { return v-u == 1 || v-u == 8 }), 18},
	{"K3,3,3", 9, maskOf(9, func(u, v int) bool { return u/3 != v/3 }), 1296},
	{"edgeless10", 10, 0, 3628800},
	{"complete10", 10, 1<<45 - 1, 3628800},
	{"K5,5", 10, maskOf(10, func(u, v int) bool { return u < 5 && v >= 5 }), 28800},
	{"Petersen", 10, maskOf(10, func(u, v int) bool {
		switch {
		case v < 5: // outer 5-cycle
			return v-u == 1 || v-u == 4
		case u < 5: // spokes
			return v == u+5
		default: // inner pentagram
			return v-u == 2 || v-u == 3
		}
	}), 120},
}

// TestCanonicalMatchesExhaustiveSearch compares Canonical with the unpruned
// search on every mask for n ≤ 7 (n = 7 is skipped under -short).
func TestCanonicalMatchesExhaustiveSearch(t *testing.T) {
	top := 7
	if testing.Short() {
		top = 6
	}
	for n := 0; n <= top; n++ {
		for mask := uint64(0); mask < 1<<uint(n*(n-1)/2); mask++ {
			if got, want := MustCanonical(n, mask), exhaustiveCanonical(n, mask); got != want {
				t.Fatalf("n=%d mask=%#x: Canonical %+v, exhaustive search %+v", n, mask, got, want)
			}
		}
	}
}

// TestCanonicalMatchesExhaustiveOnClasses compares Canonical with the
// unpruned search on every class representative of the largest census
// table and on its complement, then on seeded n = 10 masks: the symmetric
// graphs above (edgeless and complete are each other's complement), the
// complements of the others, and random masks of density ¼, ½ and ¾.
// -short skips edgeless and complete, whose 10! leaves take the unpruned
// search seconds.
func TestCanonicalMatchesExhaustiveOnClasses(t *testing.T) {
	check := func(n int, mask uint64) {
		t.Helper()
		if got, want := MustCanonical(n, mask), exhaustiveCanonical(n, mask); got != want {
			t.Fatalf("n=%d mask=%#x: Canonical %+v, exhaustive search %+v", n, mask, got, want)
		}
	}
	n := censusTop()
	classes, err := Classes(n)
	if err != nil {
		t.Fatal(err)
	}
	full := uint64(1)<<uint(n*(n-1)/2) - 1
	for _, c := range classes {
		check(n, c.Mask)
		check(n, full^c.Mask)
	}

	const n10 = 10
	full10 := uint64(1)<<(n10*(n10-1)/2) - 1
	for _, g := range symmetricGraphs {
		if g.n != n10 {
			continue
		}
		if g.mask == 0 || g.mask == full10 {
			if !testing.Short() {
				check(n10, g.mask)
			}
			continue
		}
		check(n10, g.mask)
		check(n10, full10^g.mask)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 400; i++ {
		mask := rng.Uint64()
		switch i % 3 {
		case 1:
			mask &= rng.Uint64()
		case 2:
			mask |= rng.Uint64()
		}
		check(n10, mask&full10)
	}
}

// TestSearchPrunesSymmetricGraphs pins the pruning itself: on each
// symmetric graph the search must report the right |Aut| while visiting
// at most n leaves, where the unpruned search visits at least |Aut| of
// them. A search that explores an automorphic subtree to the end instead
// of abandoning it fails here.
func TestSearchPrunesSymmetricGraphs(t *testing.T) {
	for _, g := range symmetricGraphs {
		var s searcher
		s.init(g.n, g.mask)
		s.search(s.rootPartition(), true)
		if s.autOrder != g.aut {
			t.Errorf("%s: |Aut| = %d, want %d", g.name, s.autOrder, g.aut)
		}
		if s.leaves > g.n {
			t.Errorf("%s: search visited %d leaves, want at most %d", g.name, s.leaves, g.n)
		}
	}
}
