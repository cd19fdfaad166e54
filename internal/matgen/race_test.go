//go:build race

package matgen_test

// raceEnabled shortens the suite sweeps under the race detector,
// which has nothing to check in single-goroutine arithmetic.
const raceEnabled = true
