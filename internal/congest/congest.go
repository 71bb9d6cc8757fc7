// Package congest implements the classical CONGEST model (Peleg) that the
// paper positions its referee model as a restriction of: synchronous rounds
// over an arbitrary topology, where in each round every node may send one
// O(log n)-bit message over each incident link.
//
// The engine is a deterministic round-based simulator with per-link bit
// accounting. Two things are built on top of it:
//
//   - StarNetwork / RefereeAdapter: the paper's interconnection network
//     G ∪ {v₀} — the input graph plus a universal referee node — on which a
//     one-round engine protocol runs as a genuine CONGEST execution, message
//     for message. This closes the loop between the abstract model
//     (internal/engine) and the network it formalizes.
//
//   - Reference CONGEST protocols (BFS flooding) used as substrate sanity
//     checks and for the frugality accounting experiments à la Grumbach–Wu
//     (total traffic per edge).
package congest

import (
	"fmt"
	"sort"

	"refereenet/internal/bits"
	"refereenet/internal/graph"
)

// Message is one payload in flight on a link.
type Message struct {
	From, To int
	Payload  bits.String
}

// Node is a CONGEST state machine. The engine calls Init once, then Round
// for each synchronous round with the messages received at its start.
type Node interface {
	// Init observes the node's static knowledge: network size, own ID,
	// neighbor IDs (sorted). It may return messages to send in round 1.
	Init(n, id int, neighbors []int) []Message
	// Round receives the messages delivered this round (sorted by sender)
	// and returns the messages to send next round. done=true means this
	// node halts (it still receives nothing further).
	Round(round int, inbox []Message) (outbox []Message, done bool)
}

// Engine runs a synchronous CONGEST execution.
type Engine struct {
	g     *graph.Graph
	nodes map[int]Node
	// traffic[{u,v}] accumulates bits sent over the link in each direction.
	traffic map[[2]int]int
	rounds  int
	maxMsg  int
}

// NewEngine prepares an execution on topology g. Every vertex must be
// assigned a Node before Run.
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{g: g, nodes: make(map[int]Node), traffic: make(map[[2]int]int)}
}

// Assign installs the state machine for vertex v.
func (e *Engine) Assign(v int, n Node) {
	if v < 1 || v > e.g.N() {
		panic(fmt.Sprintf("congest: vertex %d out of range", v))
	}
	e.nodes[v] = n
}

// AssignAll installs the same constructor for every vertex.
func (e *Engine) AssignAll(mk func(v int) Node) {
	for v := 1; v <= e.g.N(); v++ {
		e.Assign(v, mk(v))
	}
}

// Rounds returns the number of rounds executed by the last Run.
func (e *Engine) Rounds() int { return e.rounds }

// LinkTraffic returns the total bits that crossed link {u,v} (both
// directions) during the last Run.
func (e *Engine) LinkTraffic(u, v int) int {
	if u > v {
		u, v = v, u
	}
	return e.traffic[[2]int{u, v}]
}

// MaxLinkTraffic returns the busiest link's total bits — the quantity
// Grumbach–Wu's frugal computation bounds by O(log n).
func (e *Engine) MaxLinkTraffic() int {
	max := 0
	for _, t := range e.traffic {
		if t > max {
			max = t
		}
	}
	return max
}

// MaxRoundMessageBits returns the largest single message sent in any round —
// the per-round CONGEST bandwidth constraint.
func (e *Engine) MaxRoundMessageBits() int { return e.maxMsg }

// Run executes up to maxRounds synchronous rounds, stopping early once
// every node has halted. It returns the number of rounds executed.
func (e *Engine) Run(maxRounds int) (int, error) {
	n := e.g.N()
	for v := 1; v <= n; v++ {
		if e.nodes[v] == nil {
			return 0, fmt.Errorf("congest: vertex %d has no protocol assigned", v)
		}
	}
	e.rounds = 0
	e.maxMsg = 0
	e.traffic = make(map[[2]int]int)
	halted := make(map[int]bool, n)

	// Round 0: Init emits the round-1 sends.
	pending := make(map[int][]Message)
	for v := 1; v <= n; v++ {
		out := e.nodes[v].Init(n, v, e.g.Neighbors(v))
		if err := e.post(v, out, pending); err != nil {
			return 0, err
		}
	}

	for round := 1; round <= maxRounds; round++ {
		if len(halted) == n {
			break
		}
		anyTraffic := false
		for _, msgs := range pending {
			if len(msgs) > 0 {
				anyTraffic = true
				break
			}
		}
		if !anyTraffic && round > 1 {
			break
		}
		e.rounds = round
		next := make(map[int][]Message)
		for v := 1; v <= n; v++ {
			if halted[v] {
				continue
			}
			inbox := pending[v]
			sort.Slice(inbox, func(i, j int) bool { return inbox[i].From < inbox[j].From })
			out, done := e.nodes[v].Round(round, inbox)
			if err := e.post(v, out, next); err != nil {
				return e.rounds, err
			}
			if done {
				halted[v] = true
			}
		}
		pending = next
	}
	return e.rounds, nil
}

func (e *Engine) post(from int, out []Message, dest map[int][]Message) error {
	seen := make(map[int]bool)
	for _, m := range out {
		if m.From != from {
			return fmt.Errorf("congest: node %d forged sender %d", from, m.From)
		}
		if !e.g.HasEdge(from, m.To) {
			return fmt.Errorf("congest: node %d has no link to %d", from, m.To)
		}
		if seen[m.To] {
			return fmt.Errorf("congest: node %d sent twice to %d in one round", from, m.To)
		}
		seen[m.To] = true
		key := [2]int{from, m.To}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		e.traffic[key] += m.Payload.Len()
		if m.Payload.Len() > e.maxMsg {
			e.maxMsg = m.Payload.Len()
		}
		dest[m.To] = append(dest[m.To], m)
	}
	return nil
}
