package shadow_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/shadow"
	"positlab/internal/solvers"
)

// The shadow wrapper's overhead contract: full measurement (every
// operation replayed against the reference) stays within ~10x of the
// unwrapped run, and the default sampling stride within ~2x. The
// benchmarks here measure exactly that on the two canonical workloads,
// and the gated report test publishes BENCH_shadow.json.

func dotOperands(f arith.Format, n int) (x, y []arith.Num) {
	x = make([]arith.Num, n)
	y = make([]arith.Num, n)
	for i := range x {
		x[i] = f.FromFloat64(1 + float64(i%97)/7)
		y[i] = f.FromFloat64(2 - float64(i%89)/11)
	}
	return x, y
}

func benchDot(b *testing.B, f arith.Format, every int) {
	if every > 0 {
		sf, _ := shadow.Wrap(f, shadow.Config{SampleEvery: every})
		f = sf
	}
	x, y := dotOperands(f, 1024)
	bk := arith.BulkOf(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bk.DotKernel(x, y)
	}
}

func BenchmarkDot1024Posit16e2Off(b *testing.B) { benchDot(b, arith.Posit16e2, 0) }
func BenchmarkDot1024Posit16e2Sampled(b *testing.B) {
	benchDot(b, arith.Posit16e2, shadow.DefaultSampleEvery)
}
func BenchmarkDot1024Posit16e2Full(b *testing.B) { benchDot(b, arith.Posit16e2, 1) }

func benchCholesky(b *testing.B, f arith.Format, every int) {
	if every > 0 {
		sf, _ := shadow.Wrap(f, shadow.Config{SampleEvery: every})
		f = sf
	}
	ad := laplacian1D(200).ToDense().ToFormat(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solvers.Cholesky(ad); err != nil {
			b.Fatal(err)
		}
	}
}

// denseDominant is a dense, diagonally dominant SPD matrix (diagonal
// 256, off-diagonal 1/(1+(i+j) mod 7)). Its Cholesky factor has no zero
// multiplier, so every trailing-update row reaches the kernel and is
// measured op by op — unlike the Laplacian's, whose zero-multiplier rows
// the solver skips, telling the recorder of their operations in bulk.
func denseDominant(n int) *linalg.Dense {
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 256.0
			if i != j {
				v = 1 / float64(1+(i+j)%7)
			}
			a.Set(i, j, v)
		}
	}
	return a
}

func BenchmarkCholesky200Posit16e2Off(b *testing.B) { benchCholesky(b, arith.Posit16e2, 0) }
func BenchmarkCholesky200Posit16e2Sampled(b *testing.B) {
	benchCholesky(b, arith.Posit16e2, shadow.DefaultSampleEvery)
}
func BenchmarkCholesky200Posit16e2Full(b *testing.B) { benchCholesky(b, arith.Posit16e2, 1) }

// timeWorkload reports the per-run wall time of fn over enough
// repetitions to smooth scheduler noise.
func timeWorkload(minRuns int, fn func()) time.Duration {
	fn() // warm-up: table builds, allocator steady state
	start := time.Now()
	runs := 0
	for runs < minRuns || time.Since(start) < 200*time.Millisecond {
		fn()
		runs++
	}
	return time.Since(start) / time.Duration(runs)
}

// TestWriteShadowBenchReport regenerates BENCH_shadow.json at the repo
// root and asserts the overhead contract. Gated behind
// POSITLAB_BENCH_SHADOW=1 so ordinary test runs stay fast;
// `make bench-shadow` sets it.
func TestWriteShadowBenchReport(t *testing.T) {
	if os.Getenv("POSITLAB_BENCH_SHADOW") != "1" {
		t.Skip("set POSITLAB_BENCH_SHADOW=1 to regenerate BENCH_shadow.json")
	}
	f := arith.Posit16e2

	type run struct {
		Name       string  `json:"name"`
		Mode       string  `json:"mode"`
		PerRunUS   float64 `json:"per_run_us"`
		Overhead   float64 `json:"overhead_vs_off"`
		SampleEvry int     `json:"sample_every,omitempty"`
	}
	var runs []run
	workload := func(name string, mk func(g arith.Format) func()) (off, sampled, full float64) {
		offD := timeWorkload(10, mk(f))
		sf, _ := shadow.Wrap(f, shadow.Config{SampleEvery: shadow.DefaultSampleEvery})
		sampD := timeWorkload(10, mk(sf))
		ff, _ := shadow.Wrap(f, shadow.Config{SampleEvery: 1})
		fullD := timeWorkload(10, mk(ff))
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		off, sampled, full = us(offD), us(sampD), us(fullD)
		runs = append(runs,
			run{Name: name, Mode: "off", PerRunUS: off, Overhead: 1},
			run{Name: name, Mode: "sampled", PerRunUS: sampled, Overhead: sampled / off, SampleEvry: shadow.DefaultSampleEvery},
			run{Name: name, Mode: "full", PerRunUS: full, Overhead: full / off, SampleEvry: 1},
		)
		return off, sampled, full
	}

	workload("dot n=1024", func(g arith.Format) func() {
		x, y := dotOperands(g, 1024)
		bk := arith.BulkOf(g)
		return func() { _ = bk.DotKernel(x, y) }
	})
	cholesky := func(a *linalg.Dense) func(g arith.Format) func() {
		return func(g arith.Format) func() {
			ad := a.ToFormat(g, false)
			return func() {
				if _, err := solvers.Cholesky(ad); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The contract workload: the solver skips the Laplacian's
	// zero-multiplier rows, and their sampled operations reach the
	// recorder through one Exact call per run of skipped rows.
	choOff, choSampled, choFull := workload("cholesky n=200", cholesky(laplacian1D(200).ToDense()))
	// No zero multipliers: every row reaches the kernel, and every
	// sampled trailing-update operation is measured against the
	// reference. cmd/benchcheck checks it against
	// the same contract, with its slack.
	workload("cholesky dense n=200", cholesky(denseDominant(200)))

	// The acceptance bounds, with headroom for a loaded CI host: the
	// measured ratios on an idle machine run well under them.
	if r := choSampled / choOff; r > 2 {
		t.Errorf("default sampling overhead on cholesky200 = %.2fx, bound 2x", r)
	}
	if r := choFull / choOff; r > 10 {
		t.Errorf("full shadow overhead on cholesky200 = %.2fx, bound 10x", r)
	}

	report := map[string]any{
		"benchmark": "shadow wrapper overhead: unwrapped vs default sampling (every 64th op) vs full measurement, per-workload wall time",
		"format":    f.Name(),
		"date":      time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"os":         runtime.GOOS + "/" + runtime.GOARCH,
			"go":         runtime.Version(),
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
		"contract": map[string]any{
			"sampled_max_overhead": 2.0,
			"full_max_overhead":    10.0,
			"workload":             "cholesky n=200",
		},
		"runs": runs,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", "..")) // internal/shadow -> repo root
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCH_shadow.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	for _, r := range runs {
		fmt.Printf("  %-16s %-8s %10.1f us  %5.2fx\n", r.Name, r.Mode, r.PerRunUS, r.Overhead)
	}
}
