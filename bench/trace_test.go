package main

import (
	"math"
	"testing"
	"time"
)

// TestSelfTimes checks self time on a synthetic tree: overlapping children
// count once, a child sticking out of its parent counts only inside it, and
// a grandchild is charged to its own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestLadderRowsAddUp(t *testing.T) {
	c := unitCost{
		fill: 10, source: 15, sourceEval: 40, batchRun: 45, execute: 50,
		subSum: 56, executor: 60, codec: 3, roundtrip: 70, viaExecutor: true,
	}
	rows := ladderRows(sumCosts([]unitCost{c, c}), true, 20, 200)
	coverage := rows[len(rows)-1].Share
	// Two units of round trip 70 plus 20 of slot idle over 200 of slot time.
	if want := (2*70 + 20) / 200.0; math.Abs(coverage-want) > 1e-9 {
		t.Errorf("coverage %v, want %v", coverage, want)
	}
	if last := rows[len(rows)-1]; last.Layer != "sum" {
		t.Errorf("last row %+v", last)
	}
}
