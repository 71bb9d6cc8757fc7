package engine

import (
	"errors"
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/graph"
)

// The paper's closing question asks what more rounds buy. This file extends
// the model minimally: in round r the referee may broadcast a message to all
// nodes (it is adjacent to every node, so this is one more round of the same
// network), and each node answers with a fresh O(log n)-bit message. Each
// round's local phase runs through LocalPhase, so every Scheduler applies.

// NodeView is everything a node knows in the model: the network size, its
// own identifier, and the identifiers of its neighbors (sorted ascending).
type NodeView struct {
	N         int
	ID        int
	Neighbors []int
}

// MultiRound is an adaptive protocol driven by the referee.
type MultiRound interface {
	// NodeMessage is the local function for the given round. broadcast is
	// what the referee sent after the previous round (empty in round 1).
	// Like Local, it must be a pure function of its arguments.
	NodeMessage(round int, view NodeView, broadcast bits.String) bits.String
	// RefereeRound consumes the round's message vector. It either finishes
	// with an output or emits the broadcast opening the next round.
	RefereeRound(round, n int, msgs []bits.String) (done bool, output interface{}, broadcast bits.String, err error)
}

// MultiRoundResult reports a complete multi-round execution.
type MultiRoundResult struct {
	Output interface{}
	Rounds int
	// PerRound holds one transcript per executed round.
	PerRound []*Transcript
	// BroadcastBits is the total size of all referee broadcasts.
	BroadcastBits int
}

// MaxNodeBits returns the largest single message any node sent in any round.
func (r *MultiRoundResult) MaxNodeBits() int {
	max := 0
	for _, t := range r.PerRound {
		if b := t.MaxBits(); b > max {
			max = b
		}
	}
	return max
}

// ErrRoundLimit is returned when a protocol fails to finish in maxRounds.
var ErrRoundLimit = errors.New("engine: round limit exceeded")

// RunMultiRound drives p on g for at most maxRounds rounds, scheduling each
// round's local phase with s.
func RunMultiRound(g *graph.Graph, p MultiRound, maxRounds int, s Scheduler) (*MultiRoundResult, error) {
	n := g.N()
	res := &MultiRoundResult{}
	var broadcast bits.String
	for round := 1; round <= maxRounds; round++ {
		local := roundLocal{p: p, round: round, broadcast: broadcast}
		t := LocalPhase(g, local, s)
		res.PerRound = append(res.PerRound, t)
		res.Rounds = round
		done, out, bc, err := p.RefereeRound(round, n, t.Messages)
		if err != nil {
			return res, fmt.Errorf("engine: round %d: %w", round, err)
		}
		if done {
			res.Output = out
			return res, nil
		}
		broadcast = bc
		res.BroadcastBits += bc.Len()
	}
	return res, ErrRoundLimit
}

// roundLocal adapts one round of a MultiRound protocol to the Local
// interface so LocalPhase (and every scheduler) can be reused.
type roundLocal struct {
	p         MultiRound
	round     int
	broadcast bits.String
}

func (r roundLocal) LocalMessage(n, id int, nbrs []int) bits.String {
	return r.p.NodeMessage(r.round, NodeView{N: n, ID: id, Neighbors: nbrs}, r.broadcast)
}
