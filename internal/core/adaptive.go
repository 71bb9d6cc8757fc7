package core

import (
	"errors"
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
)

// AdaptiveReconstruction answers the paper's closing question ("can we
// decide more properties by allowing more rounds?") for reconstruction with
// UNKNOWN degeneracy: run the Theorem 5 protocol with doubling k. Round r
// uses k = 2^{r-1}; the referee attempts Algorithm 4 and, when the pruning
// gets stuck, broadcasts one bit asking for the next round.
//
// On a graph of degeneracy d this finishes in ⌈log₂ d⌉ + 1 rounds, and the
// per-node total stays O(d² log n) because the round costs grow
// geometrically — a genuinely multi-round frugal protocol for a task no
// fixed-k one-round protocol solves.
type AdaptiveReconstruction struct {
	// MaxK caps the doubling (a graph always has degeneracy ≤ n-1, so
	// 2·(n-1) is a safe default when MaxK is 0).
	MaxK int
}

// Name implements engine.Named.
func (a *AdaptiveReconstruction) Name() string { return "adaptive-degeneracy" }

func (a *AdaptiveReconstruction) kForRound(round, n int) int {
	k := 1 << uint(round-1)
	cap := a.MaxK
	if cap <= 0 {
		cap = 2 * (n - 1)
	}
	if k > cap {
		k = cap
	}
	return k
}

// NodeMessage sends the degeneracy-k message for the round's k. The referee
// broadcast carries no payload (its arrival IS the signal); nodes derive k
// from the round number.
func (a *AdaptiveReconstruction) NodeMessage(round int, view engine.NodeView, _ bits.String) bits.String {
	p := &DegeneracyProtocol{K: a.kForRound(round, view.N)}
	return p.LocalMessage(view.N, view.ID, view.Neighbors)
}

// RefereeRound attempts reconstruction; a clean ErrDegeneracyExceeded asks
// for another round with doubled k, anything else is a protocol error.
func (a *AdaptiveReconstruction) RefereeRound(round, n int, msgs []bits.String) (bool, interface{}, bits.String, error) {
	p := &DegeneracyProtocol{K: a.kForRound(round, n)}
	g, err := p.Reconstruct(n, msgs)
	switch {
	case err == nil:
		return true, g, bits.String{}, nil
	case errors.Is(err, ErrDegeneracyExceeded):
		if a.kForRound(round+1, n) == a.kForRound(round, n) {
			return false, nil, bits.String{}, fmt.Errorf("core: k capped at %d and still stuck", a.kForRound(round, n))
		}
		return false, nil, bits.FromBits(1), nil
	default:
		return false, nil, bits.String{}, err
	}
}

var _ engine.MultiRound = (*AdaptiveReconstruction)(nil)
