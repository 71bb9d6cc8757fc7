package canon

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

var sourceSink *ClassSource

// TestClassSourceOpenDoesNotCopyTable pins that opening a source reads the
// shared cached table in place instead of copying it: once the n = 8 table
// (12,346 classes) is built, an open allocates only the ClassSource itself,
// whatever window it covers.
func TestClassSourceOpenDoesNotCopyTable(t *testing.T) {
	if _, err := ClassCount(8); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ lo, hi uint64 }{{0, 0}, {100, 5000}, {12345, 12346}} {
		open := func() {
			src, err := NewClassSource(8, w.lo, w.hi)
			if err != nil {
				t.Fatal(err)
			}
			sourceSink = src
		}
		if allocs := testing.AllocsPerRun(100, open); allocs > 1 {
			t.Errorf("[%d,%d): NewClassSource allocates %.1f times per open, want ≤ 1", w.lo, w.hi, allocs)
		}
		const opens = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < opens; i++ {
			open()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / opens; per >= 1024 {
			t.Errorf("[%d,%d): NewClassSource allocates %d B per open, want < 1 KiB", w.lo, w.hi, per)
		}
	}
	sourceSink = nil
}

// drainRange sums the class count and orbit weights a source yields over the
// class-index range [lo, hi) of the n-vertex table.
func drainRange(t *testing.T, n int, lo, hi uint64) (count int, weights uint64) {
	src, err := NewClassSource(n, lo, hi)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	for g := src.Next(); g != nil; g = src.Next() {
		count++
		weights += src.Weight()
	}
	return count, weights
}

// TestClassesCopyIsCallerOwned: Classes hands out a copy, so scribbling over
// it cannot reach the shared table every source reads. Two goroutines then
// drain overlapping windows of that table while a third scribbles over a
// fresh copy — under -race any aliasing between copy and table is a report.
func TestClassesCopyIsCallerOwned(t *testing.T) {
	const n, want, space = 7, 1044, uint64(1) << 21
	mine, err := Classes(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mine {
		mine[i] = Class{Mask: ^uint64(0), Weight: 0}
	}

	fresh, err := Classes(n)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i, c := range fresh {
		if i > 0 && c.Mask <= fresh[i-1].Mask {
			t.Fatalf("class %d: mask %#x not above %#x", i, c.Mask, fresh[i-1].Mask)
		}
		sum += c.Weight
	}
	if len(fresh) != want || sum != space {
		t.Errorf("fresh Classes(%d): %d classes, Σ weight %d; want A000088(%d) = %d and 2^21", n, len(fresh), sum, n, want)
	}
	if count, weights := drainRange(t, n, 0, 0); count != want || weights != space {
		t.Errorf("NewClassSource(%d, 0, 0): %d classes, Σ weight %d; want %d and 2^21", n, count, weights, want)
	}

	windows := []struct{ lo, hi uint64 }{{0, 700}, {300, want}}
	type result struct {
		count   int
		weights uint64
	}
	got := make([]result, len(windows))
	var wg sync.WaitGroup
	for i, w := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].count, got[i].weights = drainRange(t, n, w.lo, w.hi)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Classes(n)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range c {
			c[i].Weight = 0
		}
	}()
	wg.Wait()
	for i, w := range windows {
		var ws uint64
		for _, c := range fresh[w.lo:w.hi] {
			ws += c.Weight
		}
		if got[i].count != int(w.hi-w.lo) || got[i].weights != ws {
			t.Errorf("[%d,%d): drained %d classes, Σ weight %d; want %d and %d", w.lo, w.hi, got[i].count, got[i].weights, w.hi-w.lo, ws)
		}
	}
}

// classDigests pins the class tables byte for byte: the SHA-256 over every
// class's Mask then Weight, each as 8 little-endian bytes, in table order.
// The ascending-mask order is the class-index order of every canon plan and
// manifest, so any change to the generator that moves a class, drops one or
// alters a weight fails here.
var classDigests = map[int]string{
	7: "1597719f61c72cc49bb8310ef64c1c0f373ed67ffaa31264b938875635e1c725",
	8: "c4acbab9d40a33c52723f5f43e4bd0edfdad55281593b77a8b9e2d6bddae5703",
	9: "360140ce94c9426959cc5e0025dbf11322c06f4b043dfa2932853ce59a54ad45",
}

func TestClassTableDigest(t *testing.T) {
	for n := 7; n <= censusTop(); n++ {
		table, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var rec [16]byte
		for _, c := range table {
			binary.LittleEndian.PutUint64(rec[:8], c.Mask)
			binary.LittleEndian.PutUint64(rec[8:], c.Weight)
			h.Write(rec[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != classDigests[n] {
			t.Errorf("n=%d: class table digest %s, want %s", n, got, classDigests[n])
		}
	}
}

// extendLevelMinDegree is the class extension before pruning, kept as the
// oracle the pruned extendLevel must match: extend each level-(m-1)
// representative by every neighbourhood S that gives the new vertex minimum
// degree, canonize each candidate and dedupe on the canonical mask. With
// deg′ the degrees in the representative, m has minimum degree iff
// |S| ≤ deg′(u) + [u ∈ S] for every old vertex u, so the bound is min deg′,
// plus one when S holds every vertex of minimum deg′. It returns the table
// and the number of candidates canonized.
func extendLevelMinDegree(m int, prev []Class) ([]Class, int) {
	oldTab, tab := &edgeTables[m-1], &edgeTables[m]
	newEdge := tab.index[m-1][:m-1]
	mf := Factorial(m)
	seen := make(map[uint64]uint64)
	canonized := 0
	for _, p := range prev {
		base := uint64(0)
		var deg [MaxN]int
		for rm := p.Mask; rm != 0; rm &= rm - 1 {
			e := oldTab.ends[bits.TrailingZeros64(rm)]
			base |= 1 << tab.index[e[0]][e[1]]
			deg[e[0]]++
			deg[e[1]]++
		}
		minDeg, minSet := m, uint64(0)
		for u, d := range deg[:m-1] {
			switch {
			case d < minDeg:
				minDeg, minSet = d, 1<<uint(u)
			case d == minDeg:
				minSet |= 1 << uint(u)
			}
		}
		for sub := uint64(0); sub < 1<<uint(m-1); sub++ {
			bound := minDeg
			if sub&minSet == minSet {
				bound++
			}
			if bits.OnesCount64(sub) > bound {
				continue
			}
			mask := base
			for sb := sub; sb != 0; sb &= sb - 1 {
				mask |= 1 << newEdge[bits.TrailingZeros64(sb)]
			}
			r := MustCanonical(m, mask)
			seen[r.Canon] = r.AutOrder
			canonized++
		}
	}
	out := make([]Class, 0, len(seen))
	for c, a := range seen {
		out = append(out, Class{Mask: c, Weight: mf / a})
	}
	slices.SortFunc(out, func(a, b Class) int { return cmp.Compare(a.Mask, b.Mask) })
	return out, canonized
}

// TestExtendLevelMatchesMinDegree: the pruned extension must build, class
// for class and weight for weight, the table the minimum-degree extension
// builds, at every level up to 8, from fewer candidates.
func TestExtendLevelMatchesMinDegree(t *testing.T) {
	for m := 2; m <= 8; m++ {
		prev, err := Classes(m - 1)
		if err != nil {
			t.Fatal(err)
		}
		got, pruned := extendLevel(m, prev)
		want, unpruned := extendLevelMinDegree(m, prev)
		if !slices.Equal(got, want) {
			t.Errorf("m=%d: pruned extension builds %d classes, minimum-degree extension %d, tables differ", m, len(got), len(want))
		}
		if pruned > unpruned {
			t.Errorf("m=%d: pruned extension canonizes %d candidates, more than the %d unpruned", m, pruned, unpruned)
		}
	}
}

// TestAutomorphismGenerators: on every class representative with n ≤ 7,
// and on a seeded random relabelling of it, each automorphism
// appendAutomorphisms records must map the edge mask onto itself, and the
// generators must close to a group of exactly |Aut| elements. The
// parent-automorphism pruning of extendLevel is complete for any subgroup,
// but a generator that is not an automorphism would drop classes. The
// relabelling matters: on a canonical representative the first leaf's
// order can itself be an automorphism, which hides a generator built from
// the wrong order.
func TestAutomorphismGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 2; n <= 7; n++ {
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		tab := &edgeTables[n]
		apply := func(g *perm, mask uint64) uint64 {
			var img uint64
			for rm := mask; rm != 0; rm &= rm - 1 {
				e := tab.ends[bits.TrailingZeros64(rm)]
				img |= 1 << tab.index[g[e[0]]][g[e[1]]]
			}
			return img
		}
		var id perm
		for v := range id {
			id[v] = uint8(v)
		}
		for _, c := range classes {
			aut := Factorial(n) / c.Weight
			var shuffle perm
			for v, w := range rng.Perm(n) {
				shuffle[v] = uint8(w)
			}
			for _, mask := range []uint64{c.Mask, apply(&shuffle, c.Mask)} {
				gens := appendAutomorphisms(nil, n, mask)
				for _, g := range gens {
					if img := apply(&g, mask); img != mask {
						t.Fatalf("n=%d mask=%#x: generator %v maps it to %#x", n, mask, g[:n], img)
					}
				}
				group := map[perm]bool{id: true}
				for queue := []perm{id}; len(queue) > 0; queue = queue[1:] {
					for _, g := range gens {
						h := id
						for v := 0; v < n; v++ {
							h[v] = g[queue[0][v]]
						}
						if !group[h] {
							group[h] = true
							queue = append(queue, h)
						}
					}
				}
				if uint64(len(group)) != aut {
					t.Fatalf("n=%d mask=%#x: %d generators close to %d elements, want |Aut| = %d", n, mask, len(gens), len(group), aut)
				}
			}
		}
	}
}

// BenchmarkExtendLevel times building level m from the cached level m-1
// table — the whole cost of a cold Classes(m) once m-1 is resident — and
// reports the candidate graphs canonized per build. It fails on a build
// that does not yield A000088(m) classes from the known candidate count, so
// a one-iteration run is a smoke test of the class build.
func BenchmarkExtendLevel(b *testing.B) {
	candidatesAt := map[int]int{8: 13274, 9: 299816}
	for _, m := range []int{8, 9} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			prev, err := Classes(m - 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var table []Class
			var candidates int
			for i := 0; i < b.N; i++ {
				table, candidates = extendLevel(m, prev)
			}
			b.StopTimer()
			if uint64(len(table)) != a000088[m] || candidates != candidatesAt[m] {
				b.Fatalf("m=%d: %d classes from %d candidates, want %d from %d",
					m, len(table), candidates, a000088[m], candidatesAt[m])
			}
			b.ReportMetric(float64(candidates), "candidates/op")
		})
	}
}
