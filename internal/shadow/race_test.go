//go:build race

package shadow

// raceEnabled shortens the single-goroutine arithmetic sweeps under
// the race detector, which has nothing to check in them.
const raceEnabled = true
