package canon

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"refereenet/internal/lanes"
)

// Class is one isomorphism class of n-vertex graphs: its canonical
// representative mask and its labelled-orbit weight n!/|Aut|. Summing Weight
// over a class table reconstitutes the full labelled space 2^C(n,2).
type Class struct {
	Mask   uint64
	Weight uint64
}

// The class tables are deterministic pure functions of n, but expensive to
// build (the n = 9 table canonizes 299,816 candidate graphs), and a serve
// daemon resolves one "canon" spec per unit — so each table is built once
// per process, cached, and shared read-only: every ClassSource reads the
// cached level in place, so opening a source costs O(1) whatever the
// table's size. Levels build on each other (every n-vertex graph is an
// (n-1)-vertex graph plus one vertex), so computing Classes(9) caches 1..8
// along the way.
var classCache struct {
	sync.Mutex
	levels map[int]*classLevel
}

// classLevel is one cached class table in the form the block path reads:
// the representatives' masks transposed into lane chunks, so a source fills
// a block by copying lane words, and their orbit weights n!/|Aut| as uint32
// (at most MaxN! = 10! < 2^32). At n = 9 that is 1.2 MB of lane words and
// 1.1 MB of weights, against 4.4 MB as []Class. A []Class exists only as the
// copy Classes returns and as extendLevel's working input.
type classLevel struct {
	masks   lanes.MaskTable
	weights []uint32
}

func newClassLevel(n int, classes []Class) *classLevel {
	masks := make([]uint64, len(classes))
	weights := make([]uint32, len(classes))
	for i, c := range classes {
		masks[i], weights[i] = c.Mask, uint32(c.Weight)
	}
	return &classLevel{masks: lanes.NewMaskTable(n, masks), weights: weights}
}

// classes untransposes the level into a fresh []Class.
func (l *classLevel) classes() []Class {
	out := make([]Class, len(l.weights))
	var rows [lanes.Lanes]uint64
	for i := range out {
		if i%lanes.Lanes == 0 {
			l.masks.Chunk(i/lanes.Lanes, &rows)
		}
		out[i] = Class{Mask: rows[i%lanes.Lanes], Weight: uint64(l.weights[i])}
	}
	return out
}

// Classes returns the class table for n: one canonical representative per
// isomorphism class of graphs on n labelled vertices, in ascending order of
// canonical mask, each carrying its labelled-orbit weight. The ascending
// mask order is the class-index order of the "canon" source kind — it must
// never change, or every canon plan fingerprint and manifest would strand.
// The returned slice is a copy the caller owns; sources read the shared
// cached table instead.
func Classes(n int) ([]Class, error) {
	table, err := classTable(n)
	if err != nil {
		return nil, err
	}
	return table.classes(), nil
}

// ClassCount returns the number of isomorphism classes of n-vertex graphs —
// OEIS A000088(n) — building (and caching) the table if needed.
func ClassCount(n int) (uint64, error) {
	table, err := classTable(n)
	if err != nil {
		return 0, err
	}
	return uint64(len(table.weights)), nil
}

// classTable returns the cached n-vertex table, building it (and every
// smaller level) on first use. The level is shared by every caller and must
// never be written to.
func classTable(n int) (*classLevel, error) {
	if n < 0 || n > MaxN {
		return nil, fmt.Errorf("canon: n=%d outside class-table range [0,%d]", n, MaxN)
	}
	classCache.Lock()
	defer classCache.Unlock()
	if classCache.levels == nil {
		trivial := []Class{{Mask: 0, Weight: 1}}
		classCache.levels = map[int]*classLevel{
			0: newClassLevel(0, trivial),
			1: newClassLevel(1, trivial),
		}
	}
	// prev carries the level just built into the next extension, so a cold
	// build untransposes at most its one cached starting level.
	var prev []Class
	for m := 2; m <= n; m++ {
		if _, ok := classCache.levels[m]; ok {
			prev = nil
			continue
		}
		if prev == nil {
			prev = classCache.levels[m-1].classes()
		}
		prev, _ = extendLevel(m, prev)
		classCache.levels[m] = newClassLevel(m, prev)
	}
	return classCache.levels[n], nil
}

// extendLevel builds the level-m table from level m-1. Every m-vertex graph
// is an (m-1)-vertex graph plus one vertex, so extending each (m-1)-class
// representative by a new vertex m with each neighbourhood S ⊆ {1..m-1},
// and canonizing, covers every m-class. Two rules drop candidates before
// they are canonized, never classes:
//
//   - Invariant filter: m must minimize the pair (degree, sum of its
//     neighbours' degrees) over all m vertices. Every graph has such a
//     vertex, and both values are isomorphism invariants, so deleting one
//     from any m-class member leaves a graph isomorphic to some
//     representative, and the S that puts it back passes.
//   - Parent automorphisms (McKay, "Isomorph-free exhaustive generation",
//     1998): for σ in Aut(parent), S and σ(S) give isomorphic graphs by σ
//     extended with m ↦ m, which also keeps the filter's answer, so only the
//     least S of each orbit under the parent's automorphisms is kept.
//
// That is 299,816 canonizations at m = 9 (13,274 at m = 8), against 605,107
// (29,755) for the minimum-degree filter the tests keep as an oracle,
// |classes(m-1)|·2^(m-1) = 3,160,576 for every neighbourhood and the 2^36
// labelled graphs a naive census would canonize. Any member of a class
// yields the same canonical form and |Aut|, so the table is the same as
// without the rules. Each class's weight m!/|Aut| is computed here, once per
// process, by the worker that found the class; each worker sorts and
// compacts its candidates by mask and a linear merge joins them. It returns
// the table and the number of candidates canonized.
func extendLevel(m int, prev []Class) ([]Class, int) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(prev) {
		workers = len(prev)
	}
	mf := Factorial(m)
	newEdge := edgeTables[m].index[m-1][:m-1] // neighbourhood bit j → edge {j+1, m}
	parts := make([][]Class, workers)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var x extension
			var found []Class
			for i := w; i < len(prev); i += workers {
				x.reset(m, prev[i].Mask)
				for sub := uint64(0); sub < 1<<uint(m-1); sub++ {
					if !x.passes(sub) || !x.leastInOrbit(sub) {
						continue
					}
					mask := x.base
					for sb := sub; sb != 0; sb &= sb - 1 {
						mask |= 1 << newEdge[bits.TrailingZeros64(sb)]
					}
					r := MustCanonical(m, mask)
					if len(found) == cap(found) {
						// Double, where append would grow a large slice by
						// a quarter and copy it several times over.
						found = slices.Grow(found, max(len(found), 1024))
					}
					found = append(found, Class{Mask: r.Canon, Weight: mf / r.AutOrder})
				}
			}
			counts[w] = len(found)
			slices.SortFunc(found, func(a, b Class) int { return cmp.Compare(a.Mask, b.Mask) })
			parts[w] = slices.CompactFunc(found, func(a, b Class) bool { return a.Mask == b.Mask })
		}()
	}
	wg.Wait()

	candidates := 0
	for _, c := range counts {
		candidates += c
	}
	return mergeClasses(parts), candidates
}

// extension is one parent representative on m-1 vertices prepared for
// extension by vertex m: its edges in the m-vertex mask space, the rows,
// degrees and neighbour-degree sums its candidates are filtered by, and
// generators of its automorphism group. Vertices are 0-based; bit u of a
// neighbourhood joins u to the new vertex.
type extension struct {
	m     int
	base  uint64
	dmin  int // minimum degree in the parent
	row   [MaxN]uint16
	deg   [MaxN]int
	nds   [MaxN]int // Σ deg over the vertex's neighbours
	gens  []perm
	stack []uint16 // leastInOrbit's scratch
}

// reset prepares x for the parent with the given mask, canonizing it once
// to collect its automorphisms.
func (x *extension) reset(m int, mask uint64) {
	oldTab, tab := &edgeTables[m-1], &edgeTables[m]
	x.m, x.base, x.row = m, 0, [MaxN]uint16{}
	for rm := mask; rm != 0; rm &= rm - 1 {
		e := oldTab.ends[bits.TrailingZeros64(rm)]
		x.row[e[0]] |= 1 << e[1]
		x.row[e[1]] |= 1 << e[0]
		x.base |= 1 << tab.index[e[0]][e[1]]
	}
	x.dmin = m
	for u := 0; u < m-1; u++ {
		x.deg[u] = bits.OnesCount16(x.row[u])
		x.dmin = min(x.dmin, x.deg[u])
	}
	for u := 0; u < m-1; u++ {
		x.nds[u] = 0
		for r := x.row[u]; r != 0; r &= r - 1 {
			x.nds[u] += x.deg[bits.TrailingZeros16(r)]
		}
	}
	x.gens = appendAutomorphisms(x.gens[:0], m-1, mask)
}

// passes is the invariant filter: it reports whether the new vertex, joined
// to sub, has the least (degree, neighbour-degree sum) of all vertices. An
// old vertex u gains one degree if it is in sub, and its neighbour-degree
// sum gains one per neighbour in sub, plus the new vertex's degree if u is
// in sub. No old vertex ends above dmin+1, so a larger sub fails at once.
func (x *extension) passes(sub uint64) bool {
	k := bits.OnesCount64(sub)
	if k > x.dmin+1 {
		return false
	}
	sum := k
	for s := sub; s != 0; s &= s - 1 {
		sum += x.deg[bits.TrailingZeros64(s)]
	}
	for u := 0; u < x.m-1; u++ {
		in := int(sub>>uint(u)) & 1
		d := x.deg[u] + in
		if d < k || d == k && x.nds[u]+bits.OnesCount16(x.row[u]&uint16(sub))+in*k < sum {
			return false
		}
	}
	return true
}

// leastInOrbit reports whether sub is the least neighbourhood in its orbit
// under the group the parent's generators generate, walking the orbit until
// a smaller image turns up.
func (x *extension) leastInOrbit(sub uint64) bool {
	if len(x.gens) == 0 {
		return true
	}
	var seen [1 << (MaxN - 1) / 64]uint64
	seen[sub/64] |= 1 << (sub % 64)
	x.stack = append(x.stack[:0], uint16(sub))
	for len(x.stack) > 0 {
		t := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		for i := range x.gens {
			var img uint64
			for r := t; r != 0; r &= r - 1 {
				img |= 1 << x.gens[i][bits.TrailingZeros16(r)]
			}
			if img < sub {
				return false
			}
			if seen[img/64]&(1<<(img%64)) == 0 {
				seen[img/64] |= 1 << (img % 64)
				x.stack = append(x.stack, uint16(img))
			}
		}
	}
	return true
}

// mergeClasses joins mask-sorted tables into one, keeping one entry per mask:
// workers meet the same class through different parents, with the same
// weight.
func mergeClasses(parts [][]Class) []Class {
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]Class, 0, total)
	for {
		next := -1
		for i, part := range parts {
			if len(part) > 0 && (next < 0 || part[0].Mask < parts[next][0].Mask) {
				next = i
			}
		}
		if next < 0 {
			return out
		}
		if c := parts[next][0]; len(out) == 0 || out[len(out)-1].Mask != c.Mask {
			out = append(out, c)
		}
		parts[next] = parts[next][1:]
	}
}
