//go:build race

package engine_test

// raceEnabled: the race detector makes sync.Pool drop a random share of
// Puts, so pooled set-up allocates at random.
const raceEnabled = true
