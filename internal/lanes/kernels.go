package lanes

import "refereenet/internal/graph"

// Per-node kernels: each consumes the block's edge lanes for one vertex and
// produces 64 simultaneous answers. They are the bitsliced counterparts of
// the strawman local functions — the quantities a message encodes, computed
// for every lane at once.

// DegreeCounts accumulates deg(v) for every lane into c: one masked
// increment per potential neighbor, i.e. n−1 ripple adds for 64 degrees.
func (b *Block) DegreeCounts(v int, c *Counter) {
	c.Reset()
	for u := 1; u <= b.n; u++ {
		if u == v {
			continue
		}
		c.AddMasked(1, b.lane[b.idx[v][u]])
	}
}

// NeighborSums accumulates Σ{u : u ~ v} u — the forest/mod-k protocols'
// neighbor-ID sum — for every lane into c.
func (b *Block) NeighborSums(v int, c *Counter) {
	c.Reset()
	for u := 1; u <= b.n; u++ {
		if u == v {
			continue
		}
		c.AddMasked(uint64(u), b.lane[b.idx[v][u]])
	}
}

// DegreeParity returns deg(v) mod 2 per lane — the XOR of v's edge lanes.
func (b *Block) DegreeParity(v int) uint64 {
	x := uint64(0)
	for u := 1; u <= b.n; u++ {
		if u == v {
			continue
		}
		x ^= b.lane[b.idx[v][u]]
	}
	return x
}

// Accept kernels: per-lane predicates, bit j set iff slot j's graph
// satisfies the property. Results are already confined to LiveMask because
// dead lanes hold the empty graph in every edge lane — callers AND with
// LiveMask anyway before counting, since the empty graph does satisfy some
// predicates (connectivity at n = 1, forests).

// Triangles reports, per lane, whether the graph contains K3: the OR over
// all C(n,3) vertex triples of the AND of their three edge lanes.
func (b *Block) Triangles() uint64 {
	acc := uint64(0)
	n := b.n
	for u := 1; u <= n-2; u++ {
		for v := u + 1; v <= n-1; v++ {
			uv := b.lane[b.idx[u][v]]
			if uv == 0 {
				continue
			}
			for w := v + 1; w <= n; w++ {
				acc |= uv & b.lane[b.idx[u][w]] & b.lane[b.idx[v][w]]
			}
		}
		if acc == b.live {
			return acc
		}
	}
	return acc
}

// Squares reports, per lane, whether the graph contains C4 as a subgraph:
// some vertex pair {u,v} with two common neighbors, tracked by a
// once/twice accumulator over the candidate neighbors.
func (b *Block) Squares() uint64 {
	acc := uint64(0)
	n := b.n
	if n < 4 {
		return 0
	}
	for u := 1; u <= n-1; u++ {
		for v := u + 1; v <= n; v++ {
			once, twice := uint64(0), uint64(0)
			for w := 1; w <= n; w++ {
				if w == u || w == v {
					continue
				}
				t := b.lane[b.idx[u][w]] & b.lane[b.idx[v][w]]
				twice |= once & t
				once |= t
			}
			acc |= twice
		}
		if acc == b.live {
			return acc
		}
	}
	return acc
}

// edgePlanes is the width of Forests' edge counter: its 4 planes count to
// 15 and a carry out of the top plane is a sticky "at least 16 edges" bit,
// so the |E| ≥ n test is exact for every n ≤ 15. The constant below fails
// to compile if graph.MaxSmallN ever outgrows the counter.
const edgePlanes = 4

const _ = uint(1<<edgePlanes - 1 - graph.MaxSmallN)

// Forests reports, per lane, whether the graph is acyclic. A prefilter
// first drops every lane with |E| ≥ n, which must hold a cycle: the edges
// are counted per lane by a half-adder chain over edgePlanes planes with a
// sticky overflow word, then compared against n. The remaining lanes run
// 64 simultaneous leaf-stripping passes. Each round tallies every vertex's
// incident edges in a once/twice accumulator — the idiom Squares uses — so
// a leaf (degree exactly 1) is once &^ twice, and clears every edge
// incident to a leaf in those lanes. A forest loses at least its outermost
// leaf layer per round and empties; a 2-core — any cycle — never produces
// a leaf and survives, so a lane is a forest iff its working edge lanes
// all reach zero. An isolated K2 clears in one round (both endpoints are
// leaves). Dead lanes hold the empty graph, which strips trivially, but
// the verdict is confined to LiveMask anyway since the empty graph *is* a
// forest.
func (b *Block) Forests() uint64 {
	n := b.n
	var planes [edgePlanes]uint64
	over := uint64(0)
	for e := 0; e < b.edges; e++ {
		carry := b.lane[e]
		for i := range planes {
			planes[i], carry = planes[i]^carry, planes[i]&carry
		}
		over |= carry
	}
	// cand: lanes with |E| < n, by comparing the planes against n from the
	// top bit down (gt: already above n; eq: equal to n so far).
	gt, eq := over, ^over
	for i := edgePlanes - 1; i >= 0; i-- {
		if n>>uint(i)&1 != 0 {
			eq &= planes[i]
		} else {
			gt |= eq & planes[i]
			eq &^= planes[i]
		}
	}
	cand := b.live &^ (gt | eq)

	var work [maxEdges]uint64
	remaining := uint64(0)
	for e := 0; e < b.edges; e++ {
		work[e] = b.lane[e] & cand
		remaining |= work[e]
	}
	var leaf [graph.MaxSmallN + 1]uint64
	for remaining != 0 {
		var once, twice [graph.MaxSmallN + 1]uint64
		for e := 0; e < b.edges; e++ {
			t := work[e]
			u, v := b.us[e], b.vs[e]
			twice[u] |= once[u] & t
			once[u] |= t
			twice[v] |= once[v] & t
			once[v] |= t
		}
		for v := 1; v <= n; v++ {
			leaf[v] = once[v] &^ twice[v]
		}
		stripped := uint64(0)
		remaining = 0
		for e := 0; e < b.edges; e++ {
			kill := work[e] & (leaf[b.us[e]] | leaf[b.vs[e]])
			work[e] &^= kill
			stripped |= kill
			remaining |= work[e]
		}
		if stripped == 0 {
			break // only 2-cores left: every remaining lane is cyclic
		}
	}
	for e := 0; e < b.edges; e++ {
		cand &^= work[e]
	}
	return cand
}

// Connected reports, per lane, whether the graph is connected: 64
// simultaneous reachability closures from vertex 1, propagated along edge
// lanes. Relaxing every edge once per pass extends every shortest path by
// at least one hop regardless of edge order, so n−1 passes always suffice
// (Bellman–Ford's argument); the change tracker exits far earlier on
// typical blocks.
func (b *Block) Connected() uint64 {
	n := b.n
	if n <= 1 {
		return b.live
	}
	var reach [graph.MaxSmallN + 1]uint64
	reach[1] = b.live
	for pass := 0; pass < n-1; pass++ {
		changed := uint64(0)
		for e := 0; e < b.edges; e++ {
			t := b.lane[e]
			if t == 0 {
				continue
			}
			u, v := b.us[e], b.vs[e]
			nu := reach[u] | reach[v]&t
			nv := reach[v] | reach[u]&t
			changed |= (nu ^ reach[u]) | (nv ^ reach[v])
			reach[u], reach[v] = nu, nv
		}
		if changed == 0 {
			break
		}
	}
	acc := b.live
	for v := 1; v <= n; v++ {
		acc &= reach[v]
	}
	return acc
}

// DiameterAtMost reports, per lane, whether every vertex pair lies within
// distance d — graph.DiameterAtMost, so a disconnected lane fails. It keeps
// one word per vertex pair, the lanes where dist(u,v) ≤ k, starting from
// the edge lanes (k = 1). Each round extends every pair by exactly one hop,
//
//	within'[uv] = within[uv] | OR_w within[uw] & lane[wv],
//
// reading only the previous round's words: updating in place would let one
// round add two hops. It runs d−1 rounds and stops early once every pair
// word is the live mask. The verdict is the AND of the pair words. Both
// operands are held as full vertex-by-vertex matrices with a zero
// diagonal, so the OR over w is a walk along two rows with no pair-index
// lookups, and w = u or w = v contributes nothing. d ≥ n−1 only asks for
// connectivity, so it is Connected; d = 0 accepts exactly the one-vertex
// graph and d < 0 accepts nothing, as the scalar BFS does.
func (b *Block) DiameterAtMost(d int) uint64 {
	n := b.n
	switch {
	case d >= n-1:
		return b.Connected() // also the one-vertex graph at d = 0
	case d <= 0:
		return 0 // two distinct vertices are never 0 apart
	}
	var adj, bufA, bufB [graph.MaxSmallN][graph.MaxSmallN]uint64
	all := b.live // the AND of the current round's pair words
	for e := 0; e < b.edges; e++ {
		u, v := b.us[e]-1, b.vs[e]-1
		adj[u][v], adj[v][u] = b.lane[e], b.lane[e]
		all &= b.lane[e]
	}
	bufA = adj
	cur, next := &bufA, &bufB
	for round := 1; round < d && all != b.live; round++ {
		all = b.live
		for u := 0; u < n-1; u++ {
			wu := &cur[u]
			for v := u + 1; v < n; v++ {
				acc := wu[v]
				if acc != b.live {
					av := &adj[v]
					for w := 0; w < n; w++ {
						acc |= wu[w] & av[w]
					}
				}
				next[u][v], next[v][u] = acc, acc
				all &= acc
			}
		}
		cur, next = next, cur
	}
	return all
}
