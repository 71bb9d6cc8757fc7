// Datacenter: topology monitoring with a referee.
//
// A k-ary fat-tree is the canonical data-center fabric. Its switches know
// only their own neighbor lists; a central controller (the referee) wants
// the full wiring. Fat-trees have small degeneracy, so the paper's one-round
// frugal protocol applies: each switch sends O(k² log n) bits ONCE, and the
// controller reconstructs the entire fabric — then diffs two snapshots to
// localize a failed link.
package main

import (
	"fmt"
	"log"

	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func main() {
	fabric := gen.FatTree(8) // 8 pods: 16 core, 32 agg, 32 edge switches
	d, _ := fabric.Degeneracy()
	fmt.Printf("fat-tree fabric: n=%d switches, m=%d links, degeneracy=%d\n",
		fabric.N(), fabric.M(), d)

	p := &core.DegeneracyProtocol{K: d}

	// Snapshot 1: healthy fabric.
	before := snapshot(fabric, p)
	fmt.Printf("snapshot: every switch sent %d bits; controller rebuilt %d links\n",
		p.MessageBits(fabric.N()), before.M())

	// A link fails between an aggregation and a core switch.
	failed := fabric.Edges()[3]
	broken := fabric.Clone()
	broken.RemoveEdge(failed[0], failed[1])

	// Snapshot 2: the switches send fresh messages; the controller diffs.
	after := snapshot(broken, p)
	var lost [][2]int
	for _, e := range before.Edges() {
		if !after.HasEdge(e[0], e[1]) {
			lost = append(lost, e)
		}
	}
	fmt.Printf("after failure: controller reconstructs %d links\n", after.M())
	fmt.Printf("diff localizes the failed link: %v (injected: %v)\n", lost, failed)
	if len(lost) != 1 || lost[0] != failed {
		log.Fatal("failure localization wrong")
	}

	// The one-round recognition variant doubles as an invariant monitor:
	// "is the fabric still within its design degeneracy?"
	tr := engine.LocalPhase(broken, p, engine.Chunked{})
	ok, err := p.Recognize(broken.N(), tr.Messages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degeneracy-%d invariant still holds: %v\n", d, ok)
}

func snapshot(g *graph.Graph, p *core.DegeneracyProtocol) *graph.Graph {
	h, _, err := engine.RunReconstructor(g, p, engine.Chunked{})
	if err != nil {
		log.Fatal(err)
	}
	return h
}
