package matgen_test

import (
	"math"
	"strconv"
	"testing"

	"positlab/internal/linalg"
	"positlab/internal/matgen"
)

func TestTableIComplete(t *testing.T) {
	if len(matgen.TableI) != 19 {
		t.Fatalf("TableI has %d entries, want 19", len(matgen.TableI))
	}
	// The paper lists matrices in increasing ‖A‖₂ order.
	for i := 1; i < len(matgen.TableI); i++ {
		if matgen.TableI[i].Norm2 < matgen.TableI[i-1].Norm2 {
			t.Errorf("TableI order broken at %s", matgen.TableI[i].Name)
		}
	}
	seen := map[uint64]string{}
	for _, tgt := range matgen.TableI {
		if prev, dup := seen[tgt.Seed]; dup {
			t.Errorf("seed %d reused by %s and %s", tgt.Seed, prev, tgt.Name)
		}
		seen[tgt.Seed] = tgt.Name
		// A recorded calibration keeps the suite from calibrating at
		// run time.
		if tgt.Sweeps < 1 || !(tgt.RatioAdjust > 0) || math.IsInf(tgt.RatioAdjust, 1) {
			t.Errorf("%s: calibration (Sweeps %d, RatioAdjust %v) not recorded", tgt.Name, tgt.Sweeps, tgt.RatioAdjust)
		}
	}
}

// TestTableICalibration re-derives every Table I target's calibration
// and requires the recorded Sweeps and RatioAdjust bit for bit, since
// Generate builds each replica from them. Under the race detector only
// the targets with N <= 250 run: Calibrate is single-goroutine
// arithmetic, which the detector has nothing to check.
func TestTableICalibration(t *testing.T) {
	for _, tgt := range matgen.TableI {
		t.Run(tgt.Name, func(t *testing.T) {
			if raceEnabled && tgt.N > 250 {
				t.Skipf("N = %d; the race pass checks N <= 250 only", tgt.N)
			}
			t.Parallel()
			sweeps, adjust := matgen.Calibrate(tgt)
			if sweeps != tgt.Sweeps || math.Float64bits(adjust) != math.Float64bits(tgt.RatioAdjust) {
				t.Errorf("%s: Calibrate = (%d, %v), recorded (%d, %v); record\n\tSweeps: %d, RatioAdjust: %s",
					tgt.Name, sweeps, adjust, tgt.Sweeps, tgt.RatioAdjust, sweeps, strconv.FormatFloat(adjust, 'g', -1, 64))
			}
		})
	}
}

func TestTargetByName(t *testing.T) {
	tgt, err := matgen.TargetByName("nos1")
	if err != nil || tgt.N != 237 || tgt.Cond != 2e7 {
		t.Fatalf("TargetByName(nos1) = %+v, %v", tgt, err)
	}
	if _, err := matgen.TargetByName("does_not_exist"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestGenerateSmallTargets(t *testing.T) {
	for _, name := range []string{"bcsstk01", "bcsstk02", "lund_b", "lund_a", "nos1"} {
		tgt, _ := matgen.TargetByName(name)
		m := matgen.Generate(tgt)
		a := m.A
		if a.N != tgt.N {
			t.Errorf("%s: N = %d, want %d", name, a.N, tgt.N)
		}
		if !a.IsSymmetric(1e-12) {
			t.Errorf("%s: not symmetric", name)
		}
		// NNZ within a factor of the Table I target.
		ratio := float64(a.NNZ()) / float64(tgt.NNZ)
		if ratio < 0.3 || ratio > 3.0 {
			t.Errorf("%s: NNZ = %d vs target %d (ratio %.2f)", name, a.NNZ(), tgt.NNZ, ratio)
		}
		// ‖A‖₂ is exact by construction; Lanczos must confirm it.
		lmax := linalg.Norm2Est(a)
		if math.Abs(lmax-tgt.Norm2)/tgt.Norm2 > 1e-6 {
			t.Errorf("%s: ‖A‖₂ = %g, want %g", name, lmax, tgt.Norm2)
		}
		// Diagonal of an SPD matrix is strictly positive.
		for i, v := range a.Diag() {
			if v <= 0 {
				t.Errorf("%s: diagonal entry %d = %g not positive", name, i, v)
				break
			}
		}
		// b = A·x̂ and ‖x̂‖₂ = 1.
		if math.Abs(linalg.Norm2F64(m.XHat)-1) > 1e-12 {
			t.Errorf("%s: ‖x̂‖ = %g", name, linalg.Norm2F64(m.XHat))
		}
		y := make([]float64, a.N)
		a.MatVecF64(m.XHat, y)
		for i := range y {
			if y[i] != m.B[i] {
				t.Errorf("%s: b != A·x̂ at %d", name, i)
				break
			}
		}
	}
}

// Condition number is exact by construction for moderate conditioning,
// where Lanczos can resolve λmin.
func TestGenerateCondition(t *testing.T) {
	for _, name := range []string{"lund_b", "bcsstk02", "nos5"} {
		tgt, _ := matgen.TargetByName(name)
		m := matgen.Generate(tgt)
		cond := linalg.CondEst(m.A)
		if math.IsNaN(cond) {
			t.Fatalf("%s: CondEst failed", name)
		}
		if math.Abs(math.Log10(cond)-math.Log10(tgt.Cond)) > 0.1 {
			t.Errorf("%s: cond = %.3g, want %.3g", name, cond, tgt.Cond)
		}
	}
}

// Full-spectrum check with the dense symmetric eigensolver: every
// eigenvalue positive (SPD), extremes matching the target norm and
// condition number.
func TestGenerateFullSpectrum(t *testing.T) {
	for _, name := range []string{"bcsstk01", "lund_b", "bcsstk02"} {
		tgt, _ := matgen.TargetByName(name)
		m := matgen.Generate(tgt)
		eigs, err := linalg.SymEigenvaluesSparse(m.A)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eigs[0] <= 0 {
			t.Fatalf("%s: λmin = %g, not SPD", name, eigs[0])
		}
		lmax := eigs[len(eigs)-1]
		if math.Abs(lmax-tgt.Norm2)/tgt.Norm2 > 1e-6 {
			t.Errorf("%s: λmax = %g, want %g", name, lmax, tgt.Norm2)
		}
		cond := lmax / eigs[0]
		if math.Abs(math.Log10(cond)-math.Log10(tgt.Cond)) > 0.15 {
			t.Errorf("%s: full-spectrum cond = %.3g, want %.3g", name, cond, tgt.Cond)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tgt, _ := matgen.TargetByName("bcsstk01")
	a := matgen.Generate(tgt).A
	b := matgen.Generate(tgt).A
	if a.NNZ() != b.NNZ() {
		t.Fatal("regeneration changed NNZ")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] || a.Col[i] != b.Col[i] {
			t.Fatal("regeneration is not bit-identical")
		}
	}
}

func TestSuiteByNames(t *testing.T) {
	ms, err := matgen.SuiteByNames([]string{"bcsstk01", "lund_b"})
	if err != nil || len(ms) != 2 || ms[0].Target.Name != "bcsstk01" {
		t.Fatalf("SuiteByNames failed: %v", err)
	}
	if _, err := matgen.SuiteByNames([]string{"nope"}); err == nil {
		t.Fatal("unknown name must error")
	}
}
