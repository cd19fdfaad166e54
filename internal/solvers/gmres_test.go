package solvers_test

import (
	"context"
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

func TestGMRESIRConverges(t *testing.T) {
	a := laplacian1D(40)
	want, b := onesRHS(a)
	for _, f := range []arith.Format{arith.Float16, arith.Posit16e1, arith.Posit16e2} {
		res, _ := solvers.MixedIRGMRES(context.Background(), a, b, f, solvers.IRScaling{}, solvers.IROptions{}, solvers.GMRESOptions{})
		if res.FactorFailed || !res.Converged {
			t.Fatalf("%s: %+v", f.Name(), res)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-10 {
				t.Fatalf("%s: x[%d] = %g", f.Name(), i, res.X[i])
			}
		}
	}
}

// GMRES corrections must need no more (usually fewer) outer iterations
// than plain triangular-solve corrections.
func TestGMRESIRBeatsPlainIR(t *testing.T) {
	// Moderately conditioned system where the 16-bit factor is rough.
	n := 60
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		// Diagonally dominant (diag >= 5 > 4 = max off-diag row sum),
		// so the matrix stays PD even after Float16 rounding.
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 8 + 3*math.Sin(float64(i))})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1.5})
		}
		if i+2 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 2, Val: 0.5 * math.Cos(float64(i))})
		}
	}
	a, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		t.Fatal(err)
	}
	_, b := onesRHS(a)
	f := arith.Float16
	plain := solvers.MixedIR(a, b, f, solvers.IRScaling{}, solvers.IROptions{})
	gm, _ := solvers.MixedIRGMRES(context.Background(), a, b, f, solvers.IRScaling{}, solvers.IROptions{}, solvers.GMRESOptions{})
	if plain.FactorFailed || gm.FactorFailed {
		t.Fatal("factorization failed")
	}
	if !gm.Converged {
		t.Fatalf("GMRES-IR did not converge: %+v", gm)
	}
	if plain.Converged && gm.Iterations > plain.Iterations {
		t.Errorf("GMRES-IR %d outer iterations > plain IR %d", gm.Iterations, plain.Iterations)
	}
}

// The paper's §V-D2 remark: GMRES corrections rescue cases where plain
// IR stalls on a poor factorization.
func TestGMRESIRRescuesStalledIR(t *testing.T) {
	// A system whose Float16 factorization is poor enough that plain
	// IR stalls (cond ~ few thousand after clamping).
	n := 50
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		d := 1.0 + 1e-3*float64(i*i%17)
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: d})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -0.4999})
		}
	}
	a, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		t.Fatal(err)
	}
	_, b := onesRHS(a)
	f := arith.Float16
	plain := solvers.MixedIR(a, b, f, solvers.IRScaling{}, solvers.IROptions{MaxIter: 200})
	gm, _ := solvers.MixedIRGMRES(context.Background(), a, b, f, solvers.IRScaling{}, solvers.IROptions{MaxIter: 200}, solvers.GMRESOptions{})
	if gm.FactorFailed {
		t.Fatal("factorization failed")
	}
	if !gm.Converged {
		t.Fatalf("GMRES-IR must converge here: %+v", gm)
	}
	t.Logf("plain: conv=%v iters=%d; gmres: iters=%d", plain.Converged, plain.Iterations, gm.Iterations)
	if plain.Converged && gm.Iterations > plain.Iterations {
		t.Errorf("GMRES-IR should not be slower: %d vs %d", gm.Iterations, plain.Iterations)
	}
}
