// Package sketch probes the paper's Section IV open questions with two
// executable constructions:
//
//  1. The remark the authors make about why their partition technique cannot
//     prove connectivity hard: "if a graph is split into k parts and vertices
//     of each part are allowed to communicate to each other, there is an
//     algorithm for connectivity using O(k log n) bits per node."
//     PartitionConnectivity realizes that algorithm.
//
//  2. The randomized escape hatch: with public randomness, linear ℓ₀-sampling
//     sketches (Ahn–Guha–McGregor style) decide connectivity in ONE round
//     with polylog(n)-bit messages — more than O(log n), but a sharp contrast
//     to the deterministic pessimism. SketchConnectivity realizes it as an
//     engine.Decider.
package sketch

import (
	"fmt"
	"math/rand"
	"sort"

	"refereenet/internal/bits"
	"refereenet/internal/graph"
)

// PartitionConnectivity is the coalition protocol from the paper's
// conclusion. The vertex set is split into k parts; all vertices of a part
// pool their knowledge (every edge incident to the part). Each vertex then
// sends O(k log n) bits and the referee decides connectivity exactly.
//
// Construction: for every pair of parts {i,j} both coalitions know the full
// bipartite graph B_ij between them, so both can compute the SAME canonical
// spanning forest F_ij; likewise F_ii for the internal graph of each part.
// Root every tree at its minimum-ID vertex. Each non-root vertex is charged
// exactly its parent edge, so a vertex carries ≤ 1 edge per forest it
// touches: k slots of ⌈log₂(n+1)⌉ bits each. The union of all the forests
// preserves connectivity of G (each edge of G lies in some covered subgraph,
// and spanning forests preserve the connectivity of their subgraph), so the
// referee's union-find over the reported parent edges gives the exact answer.
type PartitionConnectivity struct {
	// PartOf[v] ∈ {1..K} assigns vertex v to a part; index 0 unused.
	PartOf []int
	K      int
}

// NewIntervalPartition splits {1..n} into k near-equal contiguous parts.
func NewIntervalPartition(n, k int) *PartitionConnectivity {
	if k < 1 {
		panic("sketch: need k >= 1")
	}
	partOf := make([]int, n+1)
	for v := 1; v <= n; v++ {
		p := (v - 1) * k / n
		partOf[v] = p + 1
	}
	return &PartitionConnectivity{PartOf: partOf, K: k}
}

// NewRandomPartition assigns each vertex to one of k parts uniformly at
// random (the protocol's correctness is partition-independent; tests use
// this to confirm it).
func NewRandomPartition(rng *rand.Rand, n, k int) *PartitionConnectivity {
	if k < 1 {
		panic("sketch: need k >= 1")
	}
	partOf := make([]int, n+1)
	for v := 1; v <= n; v++ {
		partOf[v] = 1 + rng.Intn(k)
	}
	return &PartitionConnectivity{PartOf: partOf, K: k}
}

// MessageBits returns the exact per-node message size: K slots of parent
// pointers plus nothing else.
func (pc *PartitionConnectivity) MessageBits(n int) int {
	return pc.K * bits.Width(n)
}

// Run simulates the protocol on g: coalition computations, per-node
// messages, and the referee's decision. It returns the decision and the
// transcript-style accounting (max bits per node).
func (pc *PartitionConnectivity) Run(g *graph.Graph) (connected bool, maxBits int, err error) {
	n := g.N()
	if len(pc.PartOf) != n+1 {
		return false, 0, fmt.Errorf("sketch: partition covers %d vertices, graph has %d", len(pc.PartOf)-1, n)
	}
	w := bits.Width(n)
	// parent[v][j] = parent of v in the forest for slot j (0 = none).
	parent := make([][]int, n+1)
	for v := 1; v <= n; v++ {
		parent[v] = make([]int, pc.K+1)
	}
	// Intra-part forests F_ii and cross forests F_ij.
	for i := 1; i <= pc.K; i++ {
		for j := i; j <= pc.K; j++ {
			edges := pc.pairEdges(g, i, j)
			for _, pe := range canonicalForestParents(n, edges) {
				child, par := pe[0], pe[1]
				slot := j
				if pc.PartOf[child] == j && pc.PartOf[child] != i {
					// A child in part j stores its parent under slot i.
					slot = i
				}
				parent[child][slot] = par
			}
		}
	}
	// Serialize each node's message and account bits honestly.
	referee := graph.NewUnionFind(n)
	for v := 1; v <= n; v++ {
		var wr bits.Writer
		for j := 1; j <= pc.K; j++ {
			wr.WriteUint(uint64(parent[v][j]), w)
		}
		msg := wr.String()
		if msg.Len() > maxBits {
			maxBits = msg.Len()
		}
		// Referee side: parse and union.
		r := bits.NewReader(msg)
		for j := 1; j <= pc.K; j++ {
			p64, err := r.ReadUint(w)
			if err != nil {
				return false, maxBits, err
			}
			if p64 != 0 {
				referee.Union(v, int(p64))
			}
		}
	}
	return n <= 1 || referee.Sets() == 1, maxBits, nil
}

// pairEdges lists the edges both coalitions i and j know in common and must
// agree on: intra-part edges of i when i == j, cross edges otherwise. Sorted,
// so the canonical forest is well defined.
func (pc *PartitionConnectivity) pairEdges(g *graph.Graph, i, j int) [][2]int {
	var edges [][2]int
	for _, e := range g.Edges() {
		pu, pv := pc.PartOf[e[0]], pc.PartOf[e[1]]
		if (pu == i && pv == j) || (pu == j && pv == i) {
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	return edges
}

// canonicalForestParents computes a spanning forest of the given edge set by
// scanning edges in sorted order with union-find — deterministic for a given
// edge set — then roots each tree at its minimum vertex and returns
// (child, parent) pairs.
func canonicalForestParents(n int, edges [][2]int) [][2]int {
	uf := graph.NewUnionFind(n)
	adj := make(map[int][]int)
	var vertices []int
	seen := make(map[int]bool)
	for _, e := range edges {
		for _, v := range e[:] {
			if !seen[v] {
				seen[v] = true
				vertices = append(vertices, v)
			}
		}
		if uf.Union(e[0], e[1]) {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	sort.Ints(vertices)
	// BFS from each minimum-ID root over forest edges.
	visited := make(map[int]bool)
	var parents [][2]int
	for _, root := range vertices {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue := []int{root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			nbrs := append([]int(nil), adj[u]...)
			sort.Ints(nbrs)
			for _, v := range nbrs {
				if !visited[v] {
					visited[v] = true
					parents = append(parents, [2]int{v, u})
					queue = append(queue, v)
				}
			}
		}
	}
	return parents
}
