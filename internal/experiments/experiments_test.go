package experiments_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"positlab/internal/experiments"
	"positlab/internal/posit"
)

// Small subsets keep the test suite fast; the full tables are exercised
// by cmd/experiments and the benchmarks.
var smallOpt = experiments.Options{
	Matrices: []string{"lund_b", "bcsstk01"},
}

func TestTable1Fidelity(t *testing.T) {
	rows := experiments.Table1(smallOpt)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(math.Log10(r.CondMeasured)-math.Log10(r.CondTarget)) > 0.15 {
			t.Errorf("%s: measured cond %.3g vs target %.3g", r.Name, r.CondMeasured, r.CondTarget)
		}
		if math.Abs(r.Norm2-r.Norm2Target)/r.Norm2Target > 1e-6 {
			t.Errorf("%s: measured norm %.6g vs target %.6g", r.Name, r.Norm2, r.Norm2Target)
		}
		ratio := float64(r.NNZ) / float64(r.NNZTarget)
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("%s: NNZ ratio %.2f", r.Name, ratio)
		}
	}
	text := experiments.RenderTable1(rows)
	if !strings.Contains(text, "lund_b") || !strings.Contains(text, "k(A)") {
		t.Error("render missing content")
	}
}

func TestFig3GoldenZone(t *testing.T) {
	pts, err := experiments.Fig3(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// Locate the x = 1 sample and the format columns.
	idx := func(name string) int {
		for i, f := range experiments.Fig3Formats {
			if f == name {
				return i
			}
		}
		t.Fatalf("format %s missing", name)
		return -1
	}
	var atOne experiments.Fig3Point
	found := false
	for _, p := range pts {
		if p.Log10X == 0 {
			atOne = p
			found = true
		}
	}
	if !found {
		t.Fatal("no x=1 sample")
	}
	p32 := atOne.Digits[idx("posit(32,2)")]
	f32 := atOne.Digits[idx("float32")]
	// The golden zone: posit(32,2) carries ~1.2 more digits than
	// Float32 near one (§V-C2).
	if p32-f32 < 1.0 || p32-f32 > 1.4 {
		t.Errorf("posit32 advantage at 1.0 = %.2f digits, want ~1.2", p32-f32)
	}
	// Far from one the posit taper loses to float32's flat precision.
	last := pts[len(pts)-1] // 1e12
	if last.Digits[idx("posit(32,2)")] >= last.Digits[idx("float32")] {
		t.Error("posit(32,2) should trail float32 at 1e12")
	}
	// Float16 runs out of range before 1e12 entirely.
	if last.Digits[idx("float16")] != 0 {
		t.Errorf("float16 at 1e12 = %.2f digits, want 0 (overflow)", last.Digits[idx("float16")])
	}
	// posit(16,2) still has range there (maxpos 2^56 ~ 7.2e16).
	if last.Digits[idx("posit(16,2)")] <= 0 {
		t.Error("posit(16,2) should retain digits at 1e12")
	}
}

func TestFig5WeightsSum(t *testing.T) {
	hists := experiments.Fig5(smallOpt, posit.Posit32e2)
	if len(hists) != 1 {
		t.Fatal("want one histogram")
	}
	sum := 0.0
	for _, w := range hists[0].Weights {
		sum += w
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("weights sum to %.4f, want 100", sum)
	}
	if s := experiments.RenderFig5(hists); !strings.Contains(s, "bits") {
		t.Error("render missing content")
	}
}

func TestCGExperimentsShape(t *testing.T) {
	rows6 := experiments.Fig6(smallOpt)
	rows7 := experiments.Fig7(smallOpt)
	if len(rows6) != 2 || len(rows7) != 2 {
		t.Fatal("row counts wrong")
	}
	for i, r := range rows6 {
		// Float64 reference must converge on every suite matrix.
		if !r.Converged[0] {
			t.Errorf("%s: float64 CG did not converge", r.Matrix)
		}
		// bcsstk01 (‖A‖₂ = 3e9) unscaled: posit(32,2) must do worse
		// than float32 — the Fig. 6 signature.
		if r.Matrix == "bcsstk01" {
			if v := r.PctImprovement["Posit(32,2)"]; !(v < 0) {
				t.Errorf("bcsstk01 unscaled posit(32,2) improvement = %v, want negative", v)
			}
			// After rescaling the deficit must close (Fig. 7).
			if v := rows7[i].PctImprovement["Posit(32,2)"]; !(v > -10) {
				t.Errorf("bcsstk01 rescaled posit(32,2) improvement = %v, want recovered", v)
			}
		}
	}
	if s := experiments.RenderCG(rows6); !strings.Contains(s, "%impr") {
		t.Error("render missing content")
	}
}

func TestCholExperimentsShape(t *testing.T) {
	rows8 := experiments.Fig8(smallOpt)
	rows9 := experiments.Fig9(smallOpt)
	for i, r := range rows9 {
		// After Algorithm 3 rescaling both posit formats beat Float32
		// on every matrix (Fig. 9).
		for name, adv := range r.DigitsAdvantage {
			if !(adv > 0) {
				t.Errorf("%s rescaled: %s advantage %.2f, want positive", r.Matrix, name, adv)
			}
		}
		_ = rows8[i]
	}
	// bcsstk01 unscaled (‖A‖₂=3e9): posit(32,2) should NOT beat float32
	// (Fig. 8's norm-dependent degradation).
	for _, r := range rows8 {
		if r.Matrix == "bcsstk01" {
			if adv := r.DigitsAdvantage["Posit(32,2)"]; !(adv < 0.3) {
				t.Errorf("bcsstk01 unscaled posit(32,2) advantage = %.2f, want degraded", adv)
			}
		}
	}
	if s := experiments.RenderChol(rows9); !strings.Contains(s, "digits adv") {
		t.Error("render missing content")
	}
}

func TestIRTables(t *testing.T) {
	rows2 := experiments.Table2(smallOpt)
	rows3 := experiments.Table3(smallOpt)
	byName := func(rows []experiments.IRRow, name string) experiments.IRRow {
		for _, r := range rows {
			if r.Matrix == name {
				return r
			}
		}
		t.Fatalf("matrix %s missing", name)
		return experiments.IRRow{}
	}
	// bcsstk01 naive: Float16 must fail (entries ~3e9 >> 65504);
	// posit(16,2) must factor successfully (Table II's reach story).
	b1 := byName(rows2, "bcsstk01")
	if !b1.Res[0].FactorFailed && b1.Res[0].Converged {
		t.Error("bcsstk01 naive Float16 should fail")
	}
	if b1.Res[2].FactorFailed {
		t.Error("bcsstk01 naive posit(16,2) should factor")
	}
	// Higham scaling: everything converges, posits no worse than
	// Float16 (Table III).
	for _, r := range rows3 {
		for i, res := range r.Res {
			if res.FactorFailed || !res.Converged {
				t.Errorf("%s scaled %s: %+v", r.Matrix, experiments.IRFormats[i].Name(), res)
			}
		}
		if r.PctDiff < 0 {
			t.Errorf("%s: %% diff = %.1f, want >= 0", r.Matrix, r.PctDiff)
		}
	}
	if s := experiments.RenderIR(rows3, 1000, true); !strings.Contains(s, "% diff") {
		t.Error("render missing content")
	}
}

// A Table II or III run cut short by its context leaves no memo entry:
// the next call, under a live context, returns every row.
func TestIRRowsCanceledNotMemoized(t *testing.T) {
	experiments.ForgetIRRows()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, table := range []func(experiments.Options) []experiments.IRRow{experiments.Table2, experiments.Table3} {
		canceled := smallOpt
		canceled.Ctx = ctx
		if rows := table(canceled); len(rows) != 0 {
			t.Errorf("table %d: canceled run returned %d rows", i+2, len(rows))
		}
		if rows := table(smallOpt); len(rows) != len(smallOpt.Matrices) {
			t.Errorf("table %d: live run after a canceled one returned %d rows, want %d", i+2, len(rows), len(smallOpt.Matrices))
		}
	}
}

func TestFig10(t *testing.T) {
	rows := experiments.Fig10(smallOpt)
	for _, r := range rows {
		for name, d := range r.DigitsImprovement {
			if math.IsNaN(d) {
				t.Errorf("%s: %s digits NaN", r.Matrix, name)
				continue
			}
			// Posit16 factorization error should be no more than
			// slightly worse and at best ~0.6 digits better (Fig 10b).
			if d < -0.3 || d > 1.2 {
				t.Errorf("%s: %s digits improvement %.2f out of plausible band", r.Matrix, name, d)
			}
		}
	}
	if s := experiments.RenderFig10(rows); !strings.Contains(s, "reduction") {
		t.Error("render missing content")
	}
}
