// Package canon is the isomorphism-quotient plane: a canonical-form routine
// over word-packed edge masks, automorphism-group orders, and a generator of
// one representative per isomorphism class with its labelled-orbit weight.
//
// Every property the referee protocols decide (connectivity, acyclicity,
// girth, bipartiteness, degeneracy) is isomorphism-invariant, yet the
// exhaustive sweeps evaluate all 2^C(n,2) *labelled* graphs: 6.9·10¹⁰ at
// n = 9 where only A000088(9) = 274,668 isomorphism classes exist. Sweeping
// one representative per class and scaling every tally by the class's orbit
// weight n!/|Aut(g)| reconstitutes the exact labelled totals — a ~2.5·10⁵×
// reduction in protocol evaluations at n = 9 — because BatchStats.Merge is
// exact-integer and commutative, so weighted per-class stats merge into the
// same totals a labelled enumeration would produce (for protocols whose
// per-node message sizes are label-invariant, which covers every fixed-width
// protocol in the registry; see docs/canon.md).
//
// The canonical form is the classic individualization–refinement search
// (McKay): start from the degree partition, refine to the coarsest equitable
// ordered partition, and where refinement stalls, individualize each vertex
// of the first non-singleton cell in turn and recurse. Each discrete leaf is
// a relabelling, and the canonical form is the minimum relabelled edge mask
// over all leaves. Aut(g) acts on the tree and keeps every leaf's mask, so
// the search prunes by it (first-path automorphism pruning, McKay & Piperno,
// "Practical graph isomorphism, II", 2014): a later leaf whose mask equals
// the first leaf's is an automorphism, its subtree is abandoned, and a child
// of a first-path node in the orbit of an explored sibling is skipped. The
// skipped leaves repeat masks already seen, so the minimum is unchanged,
// and |Aut(g)| is the orbit–stabilizer product of the first child's orbit
// over the first-path nodes.
package canon

import (
	"fmt"
	"math/bits"

	"refereenet/internal/graph"
)

// MaxN is the largest vertex count the canonical-form routines accept. The
// class table at n = 10 already holds 12,005,168 classes (A000088(10)) and
// costs 13,163,081 canonizations to build (the extensions of the 274,668
// n = 9 classes that extendLevel's two rules keep, counted); n = 11's
// 1.0·10⁹ classes would not
// fit a reasonable table, so the quotient plane stops where graph.Small's
// word packing still leaves headroom.
const MaxN = 10

// Result is the canonical identity of one graph.
type Result struct {
	// Canon is the canonical edge mask: the lexicographically smallest
	// relabelled mask (under the graph.EdgeIndex bit ordering) over the
	// leaves of the individualization–refinement search. Two graphs are
	// isomorphic iff their Canon masks are equal.
	Canon uint64
	// AutOrder is |Aut(g)|, the number of automorphisms.
	AutOrder uint64
}

// OrbitWeight returns the size of the labelled orbit of a graph on n
// vertices with the given automorphism-group order: n!/|Aut|. By the
// orbit–stabilizer theorem the weights over all classes sum to 2^C(n,2),
// which is the identity the weighted sweep path hangs on (pinned by
// TestOrbitWeightSum and FuzzCanonicalForm).
func (r Result) OrbitWeight(n int) uint64 {
	return Factorial(n) / r.AutOrder
}

// Factorial returns n! for 0 ≤ n ≤ 20 (far beyond MaxN; 20! is the uint64
// ceiling).
func Factorial(n int) uint64 {
	if n < 0 || n > 20 {
		panic(fmt.Sprintf("canon: factorial of %d out of uint64 range", n))
	}
	f := uint64(1)
	for i := 2; i <= n; i++ {
		f *= uint64(i)
	}
	return f
}

// Canonical computes the canonical form and automorphism-group order of the
// n-vertex graph whose edges are the set bits of mask under the
// graph.EdgeIndex ordering. It errors on n outside [0, MaxN] or a mask with
// bits at or beyond C(n,2) — masks arrive from corpus files and remote
// specs, so malformed input must fail the unit, not the process.
func Canonical(n int, mask uint64) (Result, error) {
	if n < 0 || n > MaxN {
		return Result{}, fmt.Errorf("canon: n=%d outside [0,%d]", n, MaxN)
	}
	edgeBits := uint(n * (n - 1) / 2)
	if edgeBits < 64 && mask>>edgeBits != 0 {
		return Result{}, fmt.Errorf("canon: mask %#x has bits beyond C(%d,2)=%d", mask, n, edgeBits)
	}
	if n <= 1 {
		return Result{Canon: 0, AutOrder: 1}, nil
	}
	var s searcher
	s.init(n, mask)
	s.search(s.rootPartition(), true)
	return Result{Canon: s.best, AutOrder: s.autOrder}, nil
}

// CanonicalSmall is Canonical over a graph.Small — the stack-resident graph
// the enumeration engine hands out.
func CanonicalSmall(g *graph.Small) (Result, error) {
	return Canonical(g.N(), g.EdgeMask())
}

// MustCanonical is Canonical for callers with validated input (the class
// generator, tests); it panics on error.
func MustCanonical(n int, mask uint64) Result {
	r, err := Canonical(n, mask)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// searcher holds the state of one individualization–refinement run. All
// scratch lives in fixed arrays sized by MaxN, so a canonization allocates
// nothing beyond the recursion stack — the class generator calls this
// millions of times.
//
// The first leaf the search reaches is kept: a later leaf with the same
// relabelled mask maps the first leaf's vertex order onto its own, which is
// an automorphism, and its cycles are merged into orbit. Every automorphism
// found while the children of the first-path node at depth k are explored
// fixes that node's k individualized vertices, so orbit is then a partition
// into orbits of a subgroup of their stabilizer — which is what licenses
// skipping a child there. When the node finishes, the first child's orbit
// is its full orbit under that stabilizer, and autOrder takes its size.
type searcher struct {
	n   int
	adj [MaxN]uint16 // adj[v] bit w set iff {v,w} edge, vertices 0-based
	tab *edgeTable   // &edgeTables[n]

	best     uint64      // minimum relabelled mask over the leaves visited
	first    uint64      // the first leaf's relabelled mask
	firstOrd [MaxN]uint8 // the first leaf's vertex order
	leafSeen bool
	orbit    [MaxN]uint8 // union-find parents: orbits of the automorphisms found
	autOrder uint64      // Π |orbit of the first child| over finished first-path nodes
	leaves   int         // leaves visited, which the pruning tests bound
	gens     *[]perm     // when non-nil, every automorphism found is appended
}

// perm is a permutation of the 0-based vertices: v maps to perm[v].
type perm [MaxN]uint8

// appendAutomorphisms runs Canonical's search on validated input and appends
// to gens every automorphism it finds on the way (the leaf order of the
// first leaf mapped onto a leaf with the same mask). They generate all of
// Aut(g): when the first-path node at depth k finishes, every automorphism
// found so far fixes the vertices individualized above it, so in the group
// they generate the orbit of the first child under that stabilizer is at
// least the orbit autOrder multiplies in, and the product of those orbits is
// |Aut| (TestAutomorphismGenerators closes them). The class generator
// canonizes each parent this way once; Canonical leaves gens nil.
func appendAutomorphisms(gens []perm, n int, mask uint64) []perm {
	if n <= 1 {
		return gens
	}
	var s searcher
	s.init(n, mask)
	s.gens = &gens
	s.search(s.rootPartition(), true)
	return gens
}

// partition is an ordered partition of the vertex set: order lists vertices,
// cellEnd[i] marks position i as the last of its cell. Passed by value — at
// MaxN = 10 it is three small arrays, and copying it per search node is what
// keeps backtracking trivial.
type partition struct {
	order   [MaxN]uint8
	cellEnd [MaxN]bool
}

// edgeTable is the graph.EdgeIndex bit order for one vertex count, in both
// directions and with 0-based vertices: ends[idx] is the pair of edge idx,
// index[u][v] = index[v][u] its index. Built once per n at package init, so a
// canonization neither decodes its mask through graph.EdgePair nor rebuilds a
// relabelling table.
type edgeTable struct {
	ends  [MaxN * (MaxN - 1) / 2][2]uint8
	index [MaxN][MaxN]uint8
}

var edgeTables = func() (t [MaxN + 1]edgeTable) {
	for n := 2; n <= MaxN; n++ {
		for idx := 0; idx < n*(n-1)/2; idx++ {
			u, v := graph.EdgePair(n, idx)
			t[n].ends[idx] = [2]uint8{uint8(u - 1), uint8(v - 1)}
			t[n].index[u-1][v-1] = uint8(idx)
			t[n].index[v-1][u-1] = uint8(idx)
		}
	}
	return t
}()

func (s *searcher) init(n int, mask uint64) {
	s.n = n
	s.tab = &edgeTables[n]
	for v := 0; v < MaxN; v++ {
		s.adj[v] = 0
	}
	for m := mask; m != 0; m &= m - 1 {
		e := s.tab.ends[bits.TrailingZeros64(m)]
		s.adj[e[0]] |= 1 << e[1]
		s.adj[e[1]] |= 1 << e[0]
	}
	for v := range s.orbit {
		s.orbit[v] = uint8(v)
	}
	s.best = 0
	s.leafSeen = false
	s.autOrder = 1
	s.leaves = 0
}

// rootPartition is the unit partition: all vertices in one cell. The first
// refinement pass immediately splits it by degree, so seeding the degree
// partition here would be redundant.
func (s *searcher) rootPartition() partition {
	var p partition
	for i := 0; i < s.n; i++ {
		p.order[i] = uint8(i)
	}
	p.cellEnd[s.n-1] = true
	return p
}

// refine drives p to the coarsest equitable refinement: every vertex of a
// cell has the same number of neighbors in every cell. Splitting is
// label-invariant — subcells are ordered by ascending neighbor-count
// signature, never by vertex identity — which is what makes the whole search
// tree, and therefore the canonical form, a pure isomorphism invariant.
func (s *searcher) refine(p *partition) {
	n := s.n
	// cellMask[c] is the vertex bitmask of the c-th cell, rebuilt each pass —
	// cells only ever split in place, so cell order is stable within a pass.
	var cellMask [MaxN]uint16
	var keys [MaxN]uint64
	for changed := true; changed; {
		changed = false
		nc := 0
		for c := range cellMask {
			cellMask[c] = 0
		}
		for i := 0; i < n; i++ {
			cellMask[nc] |= 1 << uint(p.order[i])
			if p.cellEnd[i] {
				nc++
			}
		}
		// For each cell, compute per-vertex signatures: 4 bits of neighbor
		// count per cell, most significant cell first, so uint64 comparison
		// is lexicographic comparison of count vectors (MaxN cells × 4 bits
		// = 40 bits ≤ 64).
		for i := 0; i < n; {
			end := i
			for !p.cellEnd[end] {
				end++
			}
			if end > i { // singletons cannot split
				var distinct bool
				first := uint64(0)
				for j := i; j <= end; j++ {
					v := p.order[j]
					key := uint64(0)
					for c := 0; c < nc; c++ {
						key = key<<4 | uint64(bits.OnesCount16(s.adj[v]&cellMask[c]))
					}
					keys[j] = key
					if j == i {
						first = key
					} else if key != first {
						distinct = true
					}
				}
				if distinct {
					// Insertion sort positions [i, end] by key — cells are
					// tiny, and stability is irrelevant because equal keys
					// land in the same subcell.
					for j := i + 1; j <= end; j++ {
						k, v := keys[j], p.order[j]
						m := j - 1
						for m >= i && keys[m] > k {
							keys[m+1], p.order[m+1] = keys[m], p.order[m]
							m--
						}
						keys[m+1], p.order[m+1] = k, v
					}
					for j := i; j < end; j++ {
						if keys[j] != keys[j+1] {
							p.cellEnd[j] = true
						}
					}
					changed = true
				}
			}
			i = end + 1
		}
	}
}

// search recurses over the individualization–refinement tree rooted at p;
// onFirst reports that p lies on the first path, the one to the first leaf.
// It returns true when a leaf below p matched the first leaf off the first
// path. That leaf's automorphism maps the first-path child's subtree onto
// the subtree being explored, so every node up to the first-path node where
// the two paths branch returns at once.
func (s *searcher) search(p partition, onFirst bool) bool {
	s.refine(&p)
	// Find the first non-singleton cell; a fully discrete partition is a
	// leaf.
	target := -1
	for i := 0; i < s.n; i++ {
		if !p.cellEnd[i] {
			target = i
			break
		}
	}
	if target < 0 {
		return s.leaf(&p)
	}
	end := target
	for !p.cellEnd[end] {
		end++
	}
	// Individualize each vertex of the target cell in turn: move it to the
	// front of the cell and seal it as a singleton. At a first-path node a
	// vertex in the orbit of an earlier sibling is skipped: the automorphism
	// carries that sibling's subtree onto its subtree, leaf masks included.
	for j := target; j <= end; j++ {
		v := p.order[j]
		if onFirst && s.sameOrbit(v, p.order[target:j]) {
			continue
		}
		q := p
		copy(q.order[target+1:j+1], p.order[target:j])
		q.order[target] = v
		q.cellEnd[target] = true
		if s.search(q, onFirst && j == target) && !onFirst {
			return true
		}
	}
	if onFirst {
		s.autOrder *= uint64(s.orbitSize(p.order[target], p.order[target:end+1]))
	}
	return false
}

// leaf scores one discrete partition: relabel vertex order[i] to i+1 and
// compare the relabelled mask against the first leaf and the best seen. It
// reports whether the leaf is an automorphic image of the first leaf.
func (s *searcher) leaf(p *partition) bool {
	s.leaves++
	var pos [MaxN]uint8
	for i := 0; i < s.n; i++ {
		pos[p.order[i]] = uint8(i)
	}
	var mask uint64
	for u := 0; u < s.n; u++ {
		for row := s.adj[u] >> uint(u+1) << uint(u+1); row != 0; row &= row - 1 {
			v := bits.TrailingZeros16(row)
			mask |= 1 << s.tab.index[pos[u]][pos[v]]
		}
	}
	switch {
	case !s.leafSeen:
		s.best, s.first, s.firstOrd, s.leafSeen = mask, mask, p.order, true
	case mask == s.first:
		for i := 0; i < s.n; i++ {
			s.union(s.firstOrd[i], p.order[i])
		}
		if s.gens != nil {
			var g perm
			for i := 0; i < s.n; i++ {
				g[s.firstOrd[i]] = p.order[i]
			}
			*s.gens = append(*s.gens, g)
		}
		return true
	case mask < s.best:
		s.best = mask
	}
	return false
}

// find returns the root of v's orbit, halving the path on the way.
func (s *searcher) find(v uint8) uint8 {
	for s.orbit[v] != v {
		s.orbit[v] = s.orbit[s.orbit[v]]
		v = s.orbit[v]
	}
	return v
}

func (s *searcher) union(u, v uint8) {
	if ru, rv := s.find(u), s.find(v); ru != rv {
		s.orbit[rv] = ru
	}
}

// sameOrbit reports whether v shares an orbit with any of the vertices in
// siblings.
func (s *searcher) sameOrbit(v uint8, siblings []uint8) bool {
	r := s.find(v)
	for _, u := range siblings {
		if s.find(u) == r {
			return true
		}
	}
	return false
}

// orbitSize counts the vertices of cell in v's orbit.
func (s *searcher) orbitSize(v uint8, cell []uint8) int {
	r, size := s.find(v), 0
	for _, u := range cell {
		if s.find(u) == r {
			size++
		}
	}
	return size
}
