package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the benchmark's percentile rule: it returns
// the highest whole percentile, at most 99, that has at least ten
// samples above it, and the nearest-rank value at that percentile.
// With too few samples for any percentile to qualify it returns 100
// and the maximum. Failed operations enter xs as +Inf, so they count
// as missing any latency limit.
func tailPercentile(xs []float64) (pct int, v float64) {
	if len(xs) == 0 {
		return 0, math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	for p := 99; p >= 1; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100), the nearest rank
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
