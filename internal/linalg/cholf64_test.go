package linalg

import (
	"math"
	"reflect"
	"testing"
)

// TestCholF64Runs pins the nonzero index: a row's runs start and end at
// nonzero entries, a gap of fewer than cholMergeGap zeros is swept with
// its neighbours and a gap of cholMergeGap or more is skipped, −0
// counts as a zero, and a row with no nonzero right of its diagonal
// has no run. The every-entry index holds [j+1, n) for each row j.
func TestCholF64Runs(t *testing.T) {
	const n = 30
	r := NewDense(n)
	for j := 0; j < n; j++ {
		r.Set(j, j, 1)
	}
	negZero := math.Copysign(0, -1)
	// Row 0: nonzeros at 2 and 3, at 11 (a gap of 7) and at 20 (a gap
	// of 8); −0 at 5 and 25.
	for _, i := range []int{2, 3, 11, 20} {
		r.Set(0, i, 0.5)
	}
	r.Set(0, 5, negZero)
	r.Set(0, 25, negZero)
	// Row 1: only −0 right of the diagonal.
	for i := 2; i < n; i++ {
		r.Set(1, i, negZero)
	}
	// Row 2: its last entry.
	r.Set(2, n-1, -3)

	c := NewCholF64(r)
	runs := func(ix runIndex, j int) []int32 { return ix.b[ix.row[j]:ix.row[j+1]] }
	for j, want := range map[int][]int32{0: {2, 12, 20, 21}, 1: {}, 2: {n - 1, n}, 3: {}, n - 1: {}} {
		if got := runs(c.nonzero, j); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d runs %v, want %v", j, got, want)
		}
	}
	for j := 0; j < n; j++ {
		if got, want := runs(c.every, j), []int32{int32(j + 1), n}; !reflect.DeepEqual(got, want) {
			t.Errorf("every-entry row %d: %v, want %v", j, got, want)
		}
	}
}
