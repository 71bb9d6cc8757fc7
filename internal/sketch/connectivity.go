package sketch

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
)

// SketchConnectivity is a one-round randomized protocol for connectivity in
// the referee model extended with public randomness (all nodes and the
// referee share Params.Seed). Messages are polylog(n) bits — not frugal in
// the paper's strict O(log n) sense, but a dramatic counterpoint to the
// deterministic lower-bound landscape of Section IV: one round suffices if
// you may flip shared coins and spend O(log³ n) bits.
//
// It implements engine.Decider, so it runs under the exact same harness as the
// oracles and strawmen. Decide can err on disconnected-looking samples with
// small probability; experiment E12 measures the success rate.
type SketchConnectivity struct{ Params Params }

// NewSketchConnectivity returns the protocol with DefaultParams for size n.
func NewSketchConnectivity(n int, seed int64) *SketchConnectivity {
	return &SketchConnectivity{Params: DefaultParams(n, seed)}
}

// Name implements engine.Named.
func (sc *SketchConnectivity) Name() string { return "sketch-connectivity" }

// MessageBits returns the exact per-node message size for graphs on n nodes.
func (sc *SketchConnectivity) MessageBits(n int) int {
	countW, indexW := cellWidths(n)
	cells := sc.Params.Phases * sc.Params.Reps * sc.Params.Levels
	return cells * (countW + indexW + 61)
}

// LocalMessage builds node id's ℓ₀-sketch of its signed incidence vector and
// serializes it. A pure function of (n, id, nbrs) and the public seed.
func (sc *SketchConnectivity) LocalMessage(n, id int, nbrs []int) bits.String {
	keys := keychain(sc.Params)
	s := newNodeSketch(sc.Params)
	for _, w := range nbrs {
		c := uint64(graph.EdgeIndex(n, id, w))
		v := int64(1)
		if id > w {
			v = -1
		}
		s.add(keys, c, v)
	}
	return s.serialize(n)
}

// Decide runs Borůvka at the referee: in each phase, sum the sketches of
// every current component, sample one outgoing edge, and merge. Connected
// iff one component remains.
func (sc *SketchConnectivity) Decide(n int, msgs []bits.String) (bool, error) {
	forest, err := sc.SpanningForest(n, msgs)
	if err != nil {
		return false, err
	}
	uf := graph.NewUnionFind(n)
	for _, e := range forest {
		uf.Union(e[0], e[1])
	}
	return n <= 1 || uf.Sets() == 1, nil
}

// SpanningForest recovers a spanning forest of the (unknown) graph from the
// sketches: the edges Borůvka sampled. If the graph is connected the forest
// has n−1 edges with high probability.
func (sc *SketchConnectivity) SpanningForest(n int, msgs []bits.String) ([][2]int, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("sketch: %d messages for n=%d", len(msgs), n)
	}
	if n <= 1 {
		return nil, nil
	}
	keys := keychain(sc.Params)
	sketches := make([]*NodeSketch, n+1)
	for i, m := range msgs {
		s, err := parseSketch(n, sc.Params, m)
		if err != nil {
			return nil, fmt.Errorf("sketch: node %d: %w", i+1, err)
		}
		sketches[i+1] = s
	}
	maxCoord := uint64(n) * uint64(n-1) / 2
	uf := graph.NewUnionFind(n)
	var forest [][2]int
	for ph := 0; ph < sc.Params.Phases && uf.Sets() > 1; ph++ {
		// Current components.
		members := make(map[int][]int)
		for v := 1; v <= n; v++ {
			members[uf.Find(v)] = append(members[uf.Find(v)], v)
		}
		progress := false
		for _, vs := range members {
			// Sum members' sketches: internal edges cancel, ∂C remains.
			sum := newNodeSketch(sc.Params)
			for _, v := range vs {
				sum.merge(sketches[v])
			}
			c, ok := sum.sample(keys, ph, maxCoord)
			if !ok {
				continue
			}
			u, v := graph.EdgePair(n, int(c))
			// Sanity: a boundary edge has exactly one endpoint inside C.
			inU, inV := uf.Same(u, vs[0]), uf.Same(v, vs[0])
			if inU == inV {
				continue
			}
			if uf.Union(u, v) {
				forest = append(forest, [2]int{u, v})
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return forest, nil
}

var (
	_ engine.Decider = (*SketchConnectivity)(nil)
	_ engine.Named   = (*SketchConnectivity)(nil)
)
