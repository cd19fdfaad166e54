package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"positlab/internal/arith"
	"positlab/internal/experiments"
	"positlab/internal/linalg"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

// ladderFormats are the formats the traced runs time at each rung,
// with the solver each one's workload runs: the paper-16bit set
// refines (ir), the paper-32bit set runs CG. The solver rungs skip the
// 8-bit format. Every traced run measures all of them, so a change to
// one width shows as no change on the other.
var ladderFormats = []struct{ name, solver string }{
	{"posit8es0", ""},
	{"float16", "ir"}, {"posit16es1", "ir"}, {"posit16es2", "ir"},
	{"float32", "cg"}, {"posit32es2", "cg"}, {"posit32es3", "cg"},
}

// ladderSink keeps the timed results live.
var ladderSink arith.Num

// perUnit runs fn reps times and returns the median time per unit in
// nanoseconds, where one call of fn does units units of work.
func perUnit(reps, units int, fn func()) float64 {
	var ns []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0))/float64(units))
	}
	return median(ns)
}

// runLadder times one call at each rung of the stack below the runner,
// in every ladder format: scalar Format ops, BulkFormat slice kernels,
// format conversion, and solver phases on the representative matrix.
func runLadder(ctx context.Context, tr *Tracer, parent int, r *report) error {
	m := experiments.Suite([]string{ladderMatrix})[0]
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = (1 + rng.Float64()) * math.Ldexp(1, rng.Intn(5)-2)
		if rng.Intn(2) == 0 {
			vals[i] = -vals[i]
		}
	}

	// The CG-rescaled system (fig7's ||A||inf ~ 2^10) and the
	// Cholesky-rescaled one (fig9's diagonal-average rescaling).
	acg := m.A.Clone()
	bcg := append([]float64(nil), m.B...)
	scaling.RescaleSystemCG(acg, bcg)
	ach := m.A.Clone()
	bch := append([]float64(nil), m.B...)
	scaling.RescaleSystemCholesky(ach, bch)
	dense := ach.ToDense()

	sp := tr.Begin(parent, "linalg", "linalg.matvec_f64", "")
	x64 := make([]float64, m.A.N)
	y64 := make([]float64, m.A.N)
	for i := range x64 {
		x64[i] = vals[i]
	}
	r.set("linalg.matvec_f64_ns", perUnit(25, 20*m.A.NNZ(), func() {
		for k := 0; k < 20; k++ {
			m.A.MatVecF64(x64, y64)
		}
	}), 25)
	tr.Finish(sp)

	for _, lf := range ladderFormats {
		name := lf.name
		if err := ctx.Err(); err != nil {
			return err
		}
		f := arith.MustByName(name)
		bulk := arith.BulkOf(f)
		a := linalg.VecFromFloat64(f, vals)
		b := linalg.VecFromFloat64(f, vals[1:])

		sp := tr.Begin(parent, "arith", "arith."+name, "")
		const rounds = 32
		r.set("arith."+name+".mul_ns", perUnit(9, rounds*len(b), func() {
			var acc arith.Num
			for k := 0; k < rounds; k++ {
				for i := range b {
					acc ^= f.Mul(a[i], b[i])
				}
			}
			ladderSink ^= acc
		}), 9)
		r.set("arith."+name+".add_ns", perUnit(9, rounds*len(b), func() {
			var acc arith.Num
			for k := 0; k < rounds; k++ {
				for i := range b {
					acc ^= f.Add(a[i], b[i])
				}
			}
			ladderSink ^= acc
		}), 9)
		x, y := a[:1024], b[:1024]
		r.set("arith."+name+".dot_ns", perUnit(9, rounds*len(x), func() {
			for k := 0; k < rounds; k++ {
				ladderSink ^= bulk.DotKernel(x, y)
			}
		}), 9)
		w := make([]arith.Num, len(y))
		nalpha := f.FromFloat64(-1.0 / 1024)
		r.set("arith."+name+".trailing_ns", perUnit(9, rounds*len(x), func() {
			for k := 0; k < rounds; k++ {
				copy(w, y)
				bulk.TrailingUpdateKernel(nalpha, x, w)
			}
			ladderSink ^= w[0]
		}), 9)
		an := acg.ToFormat(f, false)
		xv := linalg.VecFromFloat64(f, x64)
		yv := make([]arith.Num, an.N)
		r.set("arith."+name+".matvec_ns", perUnit(9, 4*an.NNZ(), func() {
			for k := 0; k < 4; k++ {
				bulk.MatVecKernel(an.RowPtr, an.Col, an.Val, xv, yv)
			}
			ladderSink ^= yv[0]
		}), 9)
		tr.Finish(sp)

		sp = tr.Begin(parent, "linalg", "linalg.to_format."+name, "")
		var dn *linalg.DenseNum
		var bn []arith.Num
		r.set("linalg."+name+".to_format_ms", perUnit(3, 1, func() {
			dn = dense.ToFormat(f, false)
			bn = linalg.VecFromFloat64(f, bch)
		})/1e6, 3)
		tr.Finish(sp)

		if lf.solver == "" {
			continue
		}
		if err := solverRungs(ctx, tr, parent, r, name, lf.solver, f, dn, bn, acg, bcg, m.A, m.B); err != nil {
			return err
		}
	}
	return nil
}

// solverRungs times the solver phases of one format: the Cholesky
// factor and the two triangular solves, then a CG iteration (32-bit
// formats) or a refinement step (16-bit formats).
func solverRungs(ctx context.Context, tr *Tracer, parent int, r *report, name, solver string, f arith.Format,
	dn *linalg.DenseNum, bn []arith.Num, acg *linalg.Sparse, bcg []float64, a *linalg.Sparse, b []float64) error {
	sp := tr.Begin(parent, "solvers", "solvers.factor."+name, "")
	var fac *linalg.DenseNum
	var ferr error
	r.set("solvers."+name+".factor_ms", perUnit(1, 1, func() {
		fac, ferr = solvers.CholeskyCtx(ctx, dn)
	})/1e6, 1)
	tr.Finish(sp)
	if ferr != nil {
		return fmt.Errorf("ladder: %s Cholesky of %s: %v", name, ladderMatrix, ferr)
	}
	sp = tr.Begin(parent, "solvers", "solvers.trisolve."+name, "")
	r.set("solvers."+name+".trisolve_ms", perUnit(5, 1, func() {
		ladderSink ^= solvers.SolveUpper(fac, solvers.SolveLowerT(fac, bn))[0]
	})/1e6, 5)
	tr.Finish(sp)

	if solver == "cg" {
		sp = tr.Begin(parent, "solvers", "solvers.cg."+name, "")
		an := acg.ToFormat(f, false)
		bv := linalg.VecFromFloat64(f, bcg)
		t0 := time.Now()
		res, err := solvers.CGCtx(ctx, an, bv, 1e-5, 10*an.N)
		d := time.Since(t0)
		tr.Finish(sp)
		if err != nil || !res.Converged || res.Iterations == 0 {
			return fmt.Errorf("ladder: %s CG on %s did not converge (%v)", name, ladderMatrix, err)
		}
		r.set("solvers."+name+".cg_iter_us", float64(d)/1e3/float64(res.Iterations), res.Iterations)
		return nil
	}

	// A refinement step is timed between the first and the last
	// iteration callbacks, which leaves the factorization out.
	sp = tr.Begin(parent, "solvers", "solvers.ir."+name, "")
	var first, last time.Time
	var steps int
	sc := solvers.IRScaling{R: scaling.HighamEquilibrate(a, 1e-8, 100), Mu: scaling.MuFor(f)}
	res, err := solvers.MixedIRCheckpointed(ctx, a, b, f, sc, solvers.IROptions{}, solvers.IRCheckpointOptions{
		OnIteration: func(int, []float64, float64) {
			last = time.Now()
			if steps == 0 {
				first = last
			}
			steps++
		},
	})
	tr.Finish(sp)
	if err != nil || !res.Converged || steps < 2 {
		return fmt.Errorf("ladder: %s refinement on %s did not converge in more than one step (%v)", name, ladderMatrix, err)
	}
	r.set("solvers."+name+".ir_step_ms", ms(last.Sub(first))/float64(steps-1), steps-1)
	return nil
}
