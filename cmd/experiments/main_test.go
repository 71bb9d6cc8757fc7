package main

import (
	"io"
	"math"
	"strings"
	"testing"
)

// runScenario streams gen.NewFamilySource, so every parameter the source
// rejects is an error returned before any batch worker starts — not a
// panic on a worker goroutine, and not a silently empty run.
func TestRunScenario(t *testing.T) {
	for _, tc := range []struct {
		name, protocol, sched, family string
		n, count                      int
		p                             float64
		wantErr                       string // "" = must succeed
	}{
		{"ok-serial", "oracle-conn", "serial", "gnp", 12, 50, 0.3, ""},
		{"ok-chunked", "forest", "chunked", "forest", 20, 30, 0.1, ""},
		{"negative-n", "degree", "chunked", "gnp", -3, 10, 0.1, "n ≥ 1"},
		{"negative-count", "degree", "serial", "gnp", 8, -5, 0.1, "negative graph count"},
		{"p-above-one", "degree", "serial", "gnp", 8, 10, 1.5, "outside [0, 1]"},
		{"p-nan", "degree", "serial", "gnp", 8, 10, math.NaN(), "outside [0, 1]"},
		{"unknown-family", "degree", "serial", "no-such-family", 8, 10, 0.1, "unknown family"},
		{"unknown-protocol", "no-such-protocol", "serial", "gnp", 8, 10, 0.1, "unknown protocol"},
		{"unknown-sched", "degree", "no-such-sched", "gnp", 8, 10, 0.1, "unknown scheduler"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runScenario(io.Discard, tc.protocol, tc.sched, tc.family, tc.n, 3, tc.count, tc.p, 1)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("ran without error, want one containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
