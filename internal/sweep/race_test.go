//go:build race

package sweep

// raceEnabled: the race detector instruments goroutines and channels, so
// allocation counts under -race say nothing about the code.
const raceEnabled = true
