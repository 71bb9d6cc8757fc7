package gen

import (
	"fmt"
	"math/rand"

	"refereenet/internal/graph"
	"refereenet/internal/numeric"
)

// KTree returns a random k-tree on n ≥ k+1 vertices: start from K_{k+1},
// then repeatedly attach a new vertex to a random existing k-clique.
// k-trees are the maximal graphs of treewidth k and have degeneracy exactly k.
func KTree(rng *rand.Rand, n, k int) *graph.Graph {
	if n < k+1 {
		panic(fmt.Sprintf("gen: k-tree needs n >= k+1 (n=%d, k=%d)", n, k))
	}
	g := graph.New(n)
	// Vertices are added in random order so IDs carry no structure.
	order := rng.Perm(n)
	for i := range order {
		order[i]++
	}
	// cliques holds the k-cliques available for attachment, k IDs each, back
	// to back: the k+1 faces of the base clique, then k per attached vertex.
	// Clique c is cliques[c*k : c*k+k]; there are count of them even when
	// k = 0, where the one empty clique is drawn with Intn(1) per vertex.
	cliques := make([]int, 0, ((k+1)+(n-k-1)*k)*k)
	base := order[:k+1]
	for i := 0; i < k+1; i++ {
		for j := i + 1; j < k+1; j++ {
			g.AddEdge(base[i], base[j])
		}
	}
	for i := 0; i < k+1; i++ {
		for j := 0; j < k+1; j++ {
			if j != i {
				cliques = append(cliques, base[j])
			}
		}
	}
	count := k + 1
	for _, v := range order[k+1:] {
		c := rng.Intn(count)
		cl := cliques[c*k : c*k+k]
		for _, u := range cl {
			g.AddEdge(v, u)
		}
		// New k-cliques: v together with each (k-1)-subset of cl.
		for drop := 0; drop < k; drop++ {
			cliques = append(cliques, v)
			for j, u := range cl {
				if j != drop {
					cliques = append(cliques, u)
				}
			}
		}
		count += k
	}
	return g
}

// RandomKDegenerate returns a graph with degeneracy exactly ≤ k built by the
// definition: vertices arrive in random order, each new vertex picks up to k
// random back-neighbors (exactly min(k, i) when force is true, a random
// number otherwise).
func RandomKDegenerate(rng *rand.Rand, n, k int, force bool) *graph.Graph {
	g := graph.New(n)
	order := rng.Perm(n)
	for i := range order {
		order[i]++
	}
	for i := 1; i < n; i++ {
		v := order[i]
		d := k
		if i < k {
			d = i
		}
		if !force && d > 0 {
			d = 1 + rng.Intn(d)
		}
		// Choose d distinct back-neighbors.
		picks := rng.Perm(i)[:d]
		for _, j := range picks {
			g.AddEdge(v, order[j])
		}
	}
	return g
}

// Apollonian returns a random Apollonian network on n ≥ 3 vertices: start
// from a triangle and repeatedly subdivide a random face with a new vertex.
// The result is a maximal planar graph (a planar 3-tree), degeneracy 3.
func Apollonian(rng *rand.Rand, n int) *graph.Graph {
	if n < 3 {
		panic("gen: Apollonian needs n >= 3")
	}
	g := graph.New(n)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	faces := [][3]int{{1, 2, 3}}
	for v := 4; v <= n; v++ {
		fi := rng.Intn(len(faces))
		f := faces[fi]
		g.AddEdge(v, f[0])
		g.AddEdge(v, f[1])
		g.AddEdge(v, f[2])
		faces[fi] = [3]int{f[0], f[1], v}
		faces = append(faces, [3]int{f[0], f[2], v}, [3]int{f[1], f[2], v})
	}
	return g
}

// MaximalOuterplanar returns a fan triangulation of a polygon on n ≥ 3
// vertices: a maximal outerplanar graph, degeneracy 2.
func MaximalOuterplanar(n int) *graph.Graph {
	if n < 3 {
		panic("gen: outerplanar needs n >= 3")
	}
	g := Cycle(n)
	for v := 3; v < n; v++ {
		g.AddEdge(1, v)
	}
	return g
}

// RandomBipartite returns a bipartite graph with parts {1..a} and
// {a+1..a+b}, each cross pair an edge with probability p. This is the family
// the triangle reduction (Theorem 3) reconstructs.
func RandomBipartite(rng *rand.Rand, a, b int, p float64) *graph.Graph {
	g := graph.New(a + b)
	for u := 1; u <= a; u++ {
		for v := a + 1; v <= a+b; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// ProjectivePlaneIncidence returns the point–line incidence graph of the
// projective plane PG(2,q) for prime q: a bipartite graph on 2(q²+q+1)
// vertices of girth 6 — in particular square-free — with (q+1)(q²+q+1)
// edges, matching the Kleitman–Winston extremal density Θ(n^{3/2}).
// Points get IDs 1..q²+q+1, lines the rest.
func ProjectivePlaneIncidence(q int) *graph.Graph {
	if q < 2 || !numeric.IsPrime(uint64(q)) {
		panic(fmt.Sprintf("gen: q=%d must be a prime >= 2", q))
	}
	pts := canonicalPoints(q)
	m := len(pts) // q^2+q+1
	g := graph.New(2 * m)
	// Points and lines of PG(2,q) are both canonical triples; point i is
	// incident to line j iff their dot product is 0 mod q.
	for i, p := range pts {
		for j, l := range pts {
			dot := (p[0]*l[0] + p[1]*l[1] + p[2]*l[2]) % q
			if dot == 0 {
				g.AddEdge(i+1, m+j+1)
			}
		}
	}
	return g
}

// canonicalPoints lists one representative of each 1-dimensional subspace of
// GF(q)^3: (1,y,z), (0,1,z), (0,0,1).
func canonicalPoints(q int) [][3]int {
	var pts [][3]int
	for y := 0; y < q; y++ {
		for z := 0; z < q; z++ {
			pts = append(pts, [3]int{1, y, z})
		}
	}
	for z := 0; z < q; z++ {
		pts = append(pts, [3]int{0, 1, z})
	}
	pts = append(pts, [3]int{0, 0, 1})
	return pts
}

// GreedySquareFree returns a square-free graph: it visits the pairs of
// {1..n} in random order and adds an edge whenever it closes no 4-cycle.
// Slower but works for any n (unlike the projective-plane construction).
func GreedySquareFree(rng *rand.Rand, n int, attempts int) *graph.Graph {
	g := graph.New(n)
	total := n * (n - 1) / 2
	if attempts <= 0 || attempts > total {
		attempts = total
	}
	for _, idx := range rng.Perm(total)[:attempts] {
		u, v := graph.EdgePair(n, idx)
		g.AddEdge(u, v)
		if g.HasSquare() {
			g.RemoveEdge(u, v)
		}
	}
	return g
}

// GreedyTriangleFree is the triangle analogue of GreedySquareFree.
func GreedyTriangleFree(rng *rand.Rand, n int, attempts int) *graph.Graph {
	g := graph.New(n)
	total := n * (n - 1) / 2
	if attempts <= 0 || attempts > total {
		attempts = total
	}
	for _, idx := range rng.Perm(total)[:attempts] {
		u, v := graph.EdgePair(n, idx)
		// Adding {u,v} closes a triangle iff u and v share a neighbor.
		shares := false
		g.ForEachNeighbor(u, func(w int) {
			if g.HasEdge(w, v) {
				shares = true
			}
		})
		if !shares {
			g.AddEdge(u, v)
		}
	}
	return g
}

// FatTree returns a 3-level fat-tree-like data-center topology with k pods
// (k even): k²/4 core switches, k aggregation and k edge switches per two
// pods, following the classic k-ary fat-tree wiring. IDs: core first, then
// per-pod aggregation, then per-pod edge switches.
func FatTree(k int) *graph.Graph {
	if k < 2 || k%2 != 0 {
		panic("gen: fat tree needs even k >= 2")
	}
	half := k / 2
	core := half * half
	n := core + k*half*2 // + aggregation and edge layers
	g := graph.New(n)
	aggID := func(pod, i int) int { return core + pod*half + i + 1 }
	edgeID := func(pod, i int) int { return core + k*half + pod*half + i + 1 }
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			// Each aggregation switch connects to half core switches.
			for c := 0; c < half; c++ {
				g.AddEdge(aggID(pod, a), a*half+c+1)
			}
			// And to every edge switch in its pod.
			for e := 0; e < half; e++ {
				g.AddEdge(aggID(pod, a), edgeID(pod, e))
			}
		}
	}
	return g
}

// BarbellWithBridge returns two K_c cliques joined by a single bridge edge —
// the canonical "is it connected after deleting one edge?" stress case.
func BarbellWithBridge(c int) *graph.Graph {
	g := graph.New(2 * c)
	for u := 1; u <= c; u++ {
		for v := u + 1; v <= c; v++ {
			g.AddEdge(u, v)
			g.AddEdge(c+u, c+v)
		}
	}
	g.AddEdge(c, c+1)
	return g
}

// DisjointCliques returns parts cliques of size c each with no edges between
// them (a disconnected graph with parts components).
func DisjointCliques(parts, c int) *graph.Graph {
	g := graph.New(parts * c)
	for p := 0; p < parts; p++ {
		base := p * c
		for u := 1; u <= c; u++ {
			for v := u + 1; v <= c; v++ {
				g.AddEdge(base+u, base+v)
			}
		}
	}
	return g
}

// Relabel returns a copy of g with IDs permuted by a random permutation;
// useful to destroy any ID structure a generator leaves behind.
func Relabel(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	n := g.N()
	perm := rng.Perm(n)
	h := graph.New(n)
	for _, e := range g.Edges() {
		h.AddEdge(perm[e[0]-1]+1, perm[e[1]-1]+1)
	}
	return h
}

// Mycielski returns the Mycielskian M(G): for G on vertices 1..n it has
// 2n+1 vertices — the originals, shadow vertices n+i, and an apex 2n+1 —
// with edges {i,j} of G, {n+i, j} and {n+j, i} for each such edge, and
// {n+i, 2n+1} for all i. The construction preserves triangle-freeness while
// increasing the chromatic number, so iterating it from C5 yields
// triangle-free graphs that are far from bipartite (M(C5) is the Grötzsch
// graph) — ideal stress inputs for the triangle and bipartiteness probes.
func Mycielski(g *graph.Graph) *graph.Graph {
	n := g.N()
	m := graph.New(2*n + 1)
	for _, e := range g.Edges() {
		m.AddEdge(e[0], e[1])
		m.AddEdge(n+e[0], e[1])
		m.AddEdge(n+e[1], e[0])
	}
	for i := 1; i <= n; i++ {
		m.AddEdge(n+i, 2*n+1)
	}
	return m
}
