package shadow_test

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/shadow"
	"positlab/internal/solvers"
)

func laplacian1D(n int) *linalg.Sparse {
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	s, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		panic(err)
	}
	return s
}

func onesRHS(a *linalg.Sparse) []float64 {
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b := make([]float64, a.N)
	a.MatVecF64(x, b)
	return b
}

// TestWrapBitIdentityCG is the wrapper's core contract: a shadowed CG
// run returns exactly the unshadowed result — same iterate bits, same
// iteration count, same residual — at every sampling rate, for both
// reference engines (f64 for 16-bit formats, big.Float for 32-bit).
func TestWrapBitIdentityCG(t *testing.T) {
	a := laplacian1D(60)
	rhs := onesRHS(a)
	for _, f := range []arith.Format{arith.Posit16e2, arith.Float16, arith.Posit32e2} {
		for _, every := range []int{1, 7, 64} {
			plain := solvers.CG(a.ToFormat(f, false), linalg.VecFromFloat64(f, rhs), 1e-5, 10*a.N)
			sf, rec := shadow.Wrap(f, shadow.Config{SampleEvery: every})
			got := solvers.CG(a.ToFormat(sf, false), linalg.VecFromFloat64(sf, rhs), 1e-5, 10*a.N)
			if got.Iterations != plain.Iterations || got.Converged != plain.Converged ||
				got.Failed != plain.Failed || got.RelResidual != plain.RelResidual {
				t.Fatalf("%s every=%d: shadowed run diverged: %+v vs %+v", f.Name(), every, got, plain)
			}
			for i := range got.X {
				if got.X[i] != plain.X[i] {
					t.Fatalf("%s every=%d: x[%d] = %g, plain %g", f.Name(), every, i, got.X[i], plain.X[i])
				}
			}
			snap := rec.Snapshot()
			if snap.TotalOps == 0 || snap.MeasuredOps == 0 {
				t.Fatalf("%s every=%d: no telemetry recorded: %+v", f.Name(), every, snap)
			}
		}
	}
}

// TestWrapBitIdentityCholesky checks the factor itself: every entry of
// the shadowed factorization matches the plain one exactly.
func TestWrapBitIdentityCholesky(t *testing.T) {
	ad := laplacian1D(40).ToDense()
	f := arith.Posit16e1
	plain, err := solvers.Cholesky(ad.ToFormat(f, false))
	if err != nil {
		t.Fatal(err)
	}
	sf, rec := shadow.Wrap(f, shadow.Config{SampleEvery: 1})
	got, err := solvers.Cholesky(ad.ToFormat(sf, false))
	if err != nil {
		t.Fatal(err)
	}
	pf, gf := plain.ToFloat64(), got.ToFloat64()
	for i := 0; i < pf.N; i++ {
		for j := 0; j < pf.N; j++ {
			if pf.At(i, j) != gf.At(i, j) {
				t.Fatalf("factor[%d,%d] = %g, plain %g", i, j, gf.At(i, j), pf.At(i, j))
			}
		}
	}
	if snap := rec.Snapshot(); snap.MeasuredOps != snap.TotalOps {
		t.Fatalf("full sampling measured %d of %d ops", snap.MeasuredOps, snap.TotalOps)
	}
}

// TestScalarTelemetry exercises the scalar dispatch path under full
// sampling: counts, exactness classification, label keying, and the
// bad-op tally for NaR operands.
func TestScalarTelemetry(t *testing.T) {
	f := arith.Posit16e1
	sf, rec := shadow.Wrap(f, shadow.Config{SampleEvery: 1})
	one := sf.One()
	two := sf.Add(one, one)   // exact in every format
	third := sf.Div(one, two) // 0.5: exact
	rec.SetLabel("phase2")
	x := sf.FromFloat64(1.0 / 3.0)
	_ = sf.Mul(x, x) // 1/9 rounds in posit16
	_ = sf.Div(one, sf.Sub(one, one))
	_ = third

	snap := rec.Snapshot()
	if snap.Format != f.Name() || snap.Reference != "float64" || snap.SampleEvery != 1 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if snap.TotalOps != 5 || snap.MeasuredOps != 5 {
		t.Fatalf("ops: total %d measured %d, want 5/5", snap.TotalOps, snap.MeasuredOps)
	}
	byKey := map[string]shadow.OpStats{}
	for _, s := range snap.Stats {
		byKey[s.Label+"/"+s.Site+"/"+s.Op] = s
	}
	if s := byKey["run/scalar/add"]; s.Count != 1 || s.Exact != 1 {
		t.Fatalf("add cell: %+v", s)
	}
	if s := byKey["phase2/scalar/mul"]; s.Count != 1 || s.Exact != 0 || float64(s.MaxRel) <= 0 || len(s.RelHist) != 1 {
		t.Fatalf("mul cell: %+v", s)
	}
	// Division by an exact zero has no defined reference: a bad op.
	if s := byKey["phase2/scalar/div"]; s.Count != 1 || s.Bad != 1 {
		t.Fatalf("div-by-zero cell: %+v", s)
	}
	// The inexact multiply must rank in the worst list with its operands.
	found := false
	for _, w := range snap.Worst {
		if w.Op == "mul" && w.Label == "phase2" {
			found = true
			if float64(w.Rel) <= 0 || float64(w.Got) == float64(w.Ref) {
				t.Fatalf("worst sample not measuring an error: %+v", w)
			}
		}
	}
	if !found {
		t.Fatalf("inexact mul missing from worst list: %+v", snap.Worst)
	}
}

// TestSamplingStride checks the global stride: measuring every 4th of
// 100 operations must record exactly 25 measurements.
func TestSamplingStride(t *testing.T) {
	sf, rec := shadow.Wrap(arith.Posit16e2, shadow.Config{SampleEvery: 4})
	one := sf.One()
	for i := 0; i < 100; i++ {
		_ = sf.Add(one, one)
	}
	snap := rec.Snapshot()
	if snap.TotalOps != 100 || snap.MeasuredOps != 25 {
		t.Fatalf("total %d measured %d, want 100/25", snap.TotalOps, snap.MeasuredOps)
	}
}

// TestKernelSites checks that kernel dispatch lands in per-site cells
// and that full sampling measures every kernel lane exactly once.
func TestKernelSites(t *testing.T) {
	f := arith.Posit16e2
	sf, rec := shadow.Wrap(f, shadow.Config{SampleEvery: 1})
	bk, ok := sf.(arith.BulkFormat)
	if !ok {
		t.Fatal("shadow-wrapped format must implement arith.BulkFormat")
	}
	n := 33
	x := make([]arith.Num, n)
	y := make([]arith.Num, n)
	for i := range x {
		x[i] = sf.FromFloat64(1 + float64(i)/7)
		y[i] = sf.FromFloat64(2 - float64(i)/11)
	}
	_ = bk.DotKernel(x, y)
	bk.AxpyKernel(sf.FromFloat64(0.3), x, y)
	bk.ScaleKernel(sf.FromFloat64(1.0/3), x)

	snap := rec.Snapshot()
	want := map[string]uint64{"dot": uint64(n), "axpy": uint64(n), "scale": uint64(n)}
	got := map[string]uint64{}
	for _, s := range snap.Stats {
		got[s.Site] += s.Count
	}
	for site, n := range want {
		if got[site] != n {
			t.Errorf("site %s: %d measured ops, want %d (stats %+v)", site, got[site], n, snap.Stats)
		}
	}
	if snap.TotalOps != uint64(3*n) {
		t.Errorf("TotalOps = %d, want %d", snap.TotalOps, 3*n)
	}
}

// TestWorstBounded checks the top-K list: bounded length, sorted
// descending by relative error.
func TestWorstBounded(t *testing.T) {
	sf, rec := shadow.Wrap(arith.Posit16e1, shadow.Config{SampleEvery: 1, TopK: 4})
	for i := 0; i < 50; i++ {
		v := sf.FromFloat64(1.0/3.0 + float64(i)*0.01)
		_ = sf.Mul(v, v)
	}
	worst := rec.Snapshot().Worst
	if len(worst) == 0 || len(worst) > 4 {
		t.Fatalf("worst list has %d entries, want 1..4", len(worst))
	}
	for i := 1; i < len(worst); i++ {
		if float64(worst[i].Rel) > float64(worst[i-1].Rel) {
			t.Fatalf("worst not sorted descending: %+v", worst)
		}
	}
}

// TestLabelCap checks bounded memory: past MaxLabels, new labels
// collapse into the "other" cell instead of growing the map.
func TestLabelCap(t *testing.T) {
	sf, rec := shadow.Wrap(arith.Posit16e2, shadow.Config{SampleEvery: 1, MaxLabels: 1})
	one := sf.One()
	// Fill the single allowed label's op cells (cap is MaxLabels ×
	// number of op kinds = 6 cells).
	rec.SetLabel("a")
	_ = sf.Add(one, one)
	_ = sf.Sub(one, one)
	_ = sf.Mul(one, one)
	_ = sf.Div(one, one)
	_ = sf.Sqrt(one)
	_ = sf.MulAdd(one, one, one)
	rec.SetLabel("b")
	_ = sf.Add(one, one)
	labels := map[string]bool{}
	for _, s := range rec.Snapshot().Stats {
		labels[s.Label] = true
	}
	if !labels["other"] || labels["b"] {
		t.Fatalf("label cap not enforced: %v", labels)
	}
}

// TestFloatJSON checks the null encoding of non-finite values.
func TestFloatJSON(t *testing.T) {
	b, err := json.Marshal(struct {
		A shadow.Float `json:"a"`
		B shadow.Float `json:"b"`
		C shadow.Float `json:"c"`
		D shadow.Float `json:"d"`
	}{shadow.Float(math.NaN()), shadow.Float(math.Inf(1)), shadow.Float(math.Inf(-1)), 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != `{"a":null,"b":null,"c":null,"d":1.5}` {
		t.Fatalf("marshal = %s", got)
	}
}

func TestDiagnoseCG(t *testing.T) {
	a := laplacian1D(50)
	rhs := onesRHS(a)
	rep, err := shadow.Diagnose(context.Background(), a, rhs, "lap50", shadow.Options{
		Solver: "cg", Format: arith.Posit32e2, Sample: shadow.Config{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matrix != "lap50" || rep.Solver != "cg" || rep.Format != arith.Posit32e2.Name() || rep.N != 50 {
		t.Fatalf("report header: %+v", rep)
	}
	if !rep.Converged || rep.Failed || rep.Iterations == 0 {
		t.Fatalf("cg run: %+v", rep)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("no divergence trace")
	}
	last := rep.Trace[len(rep.Trace)-1]
	if last.Iter != rep.Iterations {
		t.Errorf("trace ends at iter %d, run had %d", last.Iter, rep.Iterations)
	}
	if fe := float64(rep.ForwardError); !(fe >= 0 && fe < 1e-3) {
		t.Errorf("forward error vs shadow solution: %g", fe)
	}
	if rep.Envelope == nil || float64(rep.Envelope.EnvelopeDigits) <= 0 {
		t.Fatalf("envelope missing: %+v", rep.Envelope)
	}
	if rep.Telemetry.Reference != "bigfp256" {
		t.Errorf("32-bit format must use the big.Float engine, got %s", rep.Telemetry.Reference)
	}
	if len(rep.Telemetry.Stats) == 0 || rep.SampleEvery != 1 {
		t.Fatalf("telemetry: %+v", rep.Telemetry)
	}
	// Artifacts render non-empty for a traced run.
	if js, err := rep.JSON(); err != nil || !json.Valid(js) {
		t.Fatalf("JSON artifact: %v", err)
	}
	if csv := rep.TraceCSV(); !strings.HasPrefix(csv, "iter,divergence,residual,shadow_residual") {
		t.Fatalf("trace CSV: %q", csv)
	}
	if !strings.Contains(rep.StatsCSV(), "muladd") {
		t.Fatalf("stats CSV: %q", rep.StatsCSV())
	}
	if svg := rep.DecaySVG(); !strings.Contains(svg, "<svg") {
		t.Fatalf("decay SVG: %q", svg)
	}
}

func TestDiagnoseCholesky(t *testing.T) {
	a := laplacian1D(30)
	rhs := onesRHS(a)
	rep, err := shadow.Diagnose(context.Background(), a, rhs, "lap30", shadow.Options{
		Solver: "cholesky", Format: arith.Posit16e1, Sample: shadow.Config{SampleEvery: 1}, Rescale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Failed {
		t.Fatalf("cholesky run: %+v", rep)
	}
	if len(rep.Columns) == 0 || len(rep.Columns) > 32 {
		t.Fatalf("column diagnostics: %d entries", len(rep.Columns))
	}
	for i := 1; i < len(rep.Columns); i++ {
		if rep.Columns[i].Col <= rep.Columns[i-1].Col {
			t.Fatalf("columns not ascending: %+v", rep.Columns)
		}
	}
	labels := map[string]bool{}
	for _, s := range rep.Telemetry.Stats {
		labels[s.Label] = true
	}
	if !labels["factor"] || !labels["solve"] {
		t.Fatalf("phase labels missing: %v", labels)
	}
	if !strings.HasPrefix(rep.ColumnsCSV(), "col,rel_err,digits") {
		t.Fatalf("columns CSV: %q", rep.ColumnsCSV())
	}
	if fr := float64(rep.FinalResidual); !(fr > 0 && fr < 1e-1) {
		t.Errorf("backward error: %g", fr)
	}
	if sr := float64(rep.ShadowFinalResidual); !(sr >= 0 && sr < 1e-12) {
		t.Errorf("shadow backward error: %g", sr)
	}
}

func TestDiagnoseIR(t *testing.T) {
	a := laplacian1D(40)
	rhs := onesRHS(a)
	rep, err := shadow.Diagnose(context.Background(), a, rhs, "lap40", shadow.Options{
		Solver: "ir", Format: arith.Posit16e1, Sample: shadow.Config{SampleEvery: 1}, Higham: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Failed {
		t.Fatalf("ir run: %+v", rep)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("no refinement trace")
	}
	// Refinement recovers float64-level backward error from a 16-bit
	// factorization (the paper's Table II/III premise).
	if be := float64(rep.FinalResidual); !(be > 0 && be < 1e-14) {
		t.Errorf("refined backward error: %g", be)
	}
	if rep.Envelope == nil {
		t.Fatal("envelope missing")
	}
	// IR converges past the factorization format's envelope: achieved
	// digits come from float64 refinement, not the 16-bit factor.
	if r := float64(rep.Envelope.Ratio); !(r > 1) {
		t.Errorf("envelope ratio = %g, want > 1 for refined ir", r)
	}
}

// TestDiagnoseIterationsMatchPlain: the diagnosed format run is the
// same run — iteration counts must match an undiagnosed solve of the
// same request exactly.
func TestDiagnoseIterationsMatchPlain(t *testing.T) {
	a := laplacian1D(40)
	rhs := onesRHS(a)
	f := arith.Posit16e2
	plain := solvers.MixedIR(a, rhs, f, solvers.IRScaling{}, solvers.IROptions{Tol: 1e-15, MaxIter: 1000})
	rep, err := shadow.Diagnose(context.Background(), a, rhs, "lap40", shadow.Options{
		Solver: "ir", Format: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != plain.Iterations {
		t.Fatalf("diagnosed ir took %d corrections, plain run %d", rep.Iterations, plain.Iterations)
	}
	if float64(rep.FinalResidual) != plain.BackwardError {
		t.Fatalf("diagnosed backward error %g, plain %g", float64(rep.FinalResidual), plain.BackwardError)
	}
	if rep.SampleEvery != shadow.DefaultSampleEvery {
		t.Errorf("default sampling stride = %d, want %d", rep.SampleEvery, shadow.DefaultSampleEvery)
	}
}

func TestDiagnoseValidation(t *testing.T) {
	a := laplacian1D(10)
	rhs := onesRHS(a)
	if _, err := shadow.Diagnose(context.Background(), a, rhs, "x", shadow.Options{Solver: "cg"}); err == nil {
		t.Error("nil format accepted")
	}
	if _, err := shadow.Diagnose(context.Background(), a, rhs[:5], "x", shadow.Options{Solver: "cg", Format: arith.Float16}); err == nil {
		t.Error("mismatched rhs accepted")
	}
	if _, err := shadow.Diagnose(context.Background(), a, rhs, "x", shadow.Options{Solver: "lu", Format: arith.Float16}); err == nil {
		t.Error("unknown solver accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := shadow.Diagnose(ctx, a, rhs, "x", shadow.Options{Solver: "cg", Format: arith.Float16}); err == nil {
		t.Error("canceled context not propagated")
	}
}

func TestGauges(t *testing.T) {
	var g shadow.Gauges
	sf, rec := shadow.Wrap(arith.Posit16e1, shadow.Config{SampleEvery: 1})
	v := sf.FromFloat64(1.0 / 3.0)
	_ = sf.Mul(v, v)
	_ = sf.Div(sf.One(), sf.Sub(sf.One(), sf.One())) // one bad op
	snap := rec.Snapshot()
	g.Merge(&snap)
	g.Merge(&snap)
	gs := g.Snapshot()
	if gs.Runs != 2 || gs.ShadowedOps != 2*snap.TotalOps || gs.MeasuredOps != 2*snap.MeasuredOps {
		t.Fatalf("gauges: %+v (snap %+v)", gs, snap)
	}
	if gs.BadOps != 2 {
		t.Errorf("bad ops = %d, want 2", gs.BadOps)
	}
	if float64(gs.MaxRel) <= 0 {
		t.Errorf("max rel = %g, want > 0", float64(gs.MaxRel))
	}
}

// TestObserveComposition replaces the old nesting-order rule: a
// Recorder and an op counter observe one format in either order, and
// whole CG and Cholesky solves return exactly f's bits, the counter
// alone's counts, and shadow.Wrap alone's telemetry. The Recorder's
// replays of sampled operations run on the inner format, so the
// counter never sees them.
func TestObserveComposition(t *testing.T) {
	a := laplacian1D(60)
	rhs := onesRHS(a)
	ad := a.ToDense()
	cfg := shadow.Config{SampleEvery: 3}
	for _, f := range []arith.Format{arith.Posit16e2, arith.Float16, arith.Posit32e2, arith.Float32} {
		// solve runs CG and a Cholesky solve in g and returns every
		// result bit.
		solve := func(g arith.Format) []uint64 {
			var bits []uint64
			cg := solvers.CG(a.ToFormat(g, false), linalg.VecFromFloat64(g, rhs), 1e-5, 10*a.N)
			for _, v := range cg.X {
				bits = append(bits, math.Float64bits(v))
			}
			r, err := solvers.Cholesky(ad.ToFormat(g, false))
			if err != nil {
				t.Fatal(err)
			}
			x := solvers.SolveUpper(r, solvers.SolveLowerT(r, linalg.VecFromFloat64(g, rhs)))
			for i := 0; i < r.N; i++ {
				for _, v := range r.Row(i) {
					bits = append(bits, uint64(v))
				}
			}
			for _, v := range x {
				bits = append(bits, uint64(v))
			}
			return bits
		}
		snapshot := func(rec *shadow.Recorder) string {
			data, err := json.Marshal(rec.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}

		want := solve(f)
		var alone arith.AtomicOpCounts
		solve(arith.Observe(f, &alone))
		sf, rec := shadow.Wrap(f, cfg)
		solve(sf)
		wantSnap := snapshot(rec)

		for order := 0; order < 2; order++ {
			var counts arith.AtomicOpCounts
			rec := shadow.NewRecorder(f, cfg)
			obs := []arith.Observer{&counts, rec}
			if order == 1 {
				obs[0], obs[1] = obs[1], obs[0]
			}
			got := solve(arith.Observe(f, obs...))
			if len(got) != len(want) {
				t.Fatalf("%s order %d: %d result bits, want %d", f.Name(), order, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s order %d: result bit %d = %#x, %s alone %#x", f.Name(), order, i, got[i], f.Name(), want[i])
				}
			}
			if counts.Snapshot() != alone.Snapshot() {
				t.Errorf("%s order %d: counts %+v, counter alone %+v", f.Name(), order, counts.Snapshot(), alone.Snapshot())
			}
			if s := snapshot(rec); s != wantSnap {
				t.Errorf("%s order %d: telemetry differs from shadow.Wrap alone\ngot:  %s\nwant: %s", f.Name(), order, s, wantSnap)
			}
		}
	}
}

// TestRecorderConcurrent shares one fully sampled format between
// goroutines, the way an observed format may be shared: every
// operation is counted and measured exactly once. Run under -race it
// is also the data-race check of the Recorder's observer methods.
func TestRecorderConcurrent(t *testing.T) {
	const workers, n, reps = 4, 40, 25
	sf, rec := shadow.Wrap(arith.Posit16e2, shadow.Config{SampleEvery: 1})
	bk := arith.BulkOf(sf)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]arith.Num, n)
			for i := range x {
				x[i] = sf.FromFloat64(1 + float64(i)/9)
			}
			for r := 0; r < reps; r++ {
				_ = bk.DotKernel(x, x)
				bk.TrailingUpdateKernel(sf.Zero(), x, x)
				_ = sf.Mul(x[r], x[r])
			}
		}()
	}
	wg.Wait()
	snap := rec.Snapshot()
	if want := uint64(workers * reps * (2*n + 1)); snap.TotalOps != want || snap.MeasuredOps != want {
		t.Fatalf("total %d measured %d, want %d each", snap.TotalOps, snap.MeasuredOps, want)
	}
}
