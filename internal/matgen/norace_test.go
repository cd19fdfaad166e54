//go:build !race

package matgen_test

const raceEnabled = false
