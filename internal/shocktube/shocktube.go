// Package shocktube implements the 1-D Sod shock tube, the CFD
// application the paper names as future work (§VII): compressible
// Euler equations on a uniform grid, solved by a first-order
// finite-volume scheme with Rusanov (local Lax–Friedrichs) fluxes and
// explicit time stepping, with every arithmetic operation rounded in
// the chosen format.
package shocktube

import (
	"math"

	"positlab/internal/arith"
)

// State is the conserved-variable field: density, momentum, total
// energy per cell, in a format.
type State struct {
	F    arith.Format
	Rho  []arith.Num
	Mom  []arith.Num
	Ener []arith.Num
}

// Config describes a run. Defaults follow Sod's classic setup: tube
// [0,1], diaphragm at 0.5, left (ρ,p) = (1,1), right (0.125, 0.1),
// γ = 1.4, final time 0.2.
type Config struct {
	Cells int     // grid cells (default 200)
	TEnd  float64 // final time (default 0.2)
	CFL   float64 // CFL number (default 0.45)
}

func (c Config) fill() Config {
	if c.Cells == 0 {
		c.Cells = 200
	}
	if c.TEnd == 0 {
		c.TEnd = 0.2
	}
	if c.CFL == 0 {
		c.CFL = 0.45
	}
	return c
}

const gamma = 1.4

// NewSod initializes the Sod state in format f.
func NewSod(f arith.Format, cells int) *State {
	s := &State{
		F:    f,
		Rho:  make([]arith.Num, cells),
		Mom:  make([]arith.Num, cells),
		Ener: make([]arith.Num, cells),
	}
	for i := 0; i < cells; i++ {
		rho, p := 1.0, 1.0
		if float64(i)+0.5 > float64(cells)/2 {
			rho, p = 0.125, 0.1
		}
		s.Rho[i] = f.FromFloat64(rho)
		s.Mom[i] = f.Zero()
		s.Ener[i] = f.FromFloat64(p / (gamma - 1))
	}
	return s
}

// Run advances the Sod problem to TEnd and returns the final state.
// The time-step size is chosen in float64 from the format state (the
// controller is not the numerics under study); all flux and update
// arithmetic happens in the format. failed reports that the state went
// exceptional (NaR/NaN/Inf) or unphysical mid-run.
func Run(f arith.Format, cfg Config) (s *State, steps int, failed bool) {
	cfg = cfg.fill()
	n := cfg.Cells
	s = NewSod(f, n)
	dx := 1.0 / float64(n)

	t := 0.0
	for t < cfg.TEnd {
		// Wave-speed estimate for the CFL condition.
		smax := 0.0
		for i := 0; i < n; i++ {
			rho := f.ToFloat64(s.Rho[i])
			if !(rho > 0) || math.IsNaN(rho) || math.IsInf(rho, 0) {
				return s, steps, true
			}
			// The CFL time-step control is deliberately computed in
			// float64 (§V of the paper: only the state update runs in
			// the format under test); dt feeds back through
			// FromFloat64 below, never into the state directly.
			u := f.ToFloat64(s.Mom[i]) / rho //lint:allow precision CFL control path is float64 by design
			p := pressureF64(f, s, i)
			if !(p > 0) || math.IsNaN(p) {
				return s, steps, true
			}
			c := math.Sqrt(gamma * p / rho) //lint:allow precision CFL control path is float64 by design
			if v := math.Abs(u) + c; v > smax {
				smax = v
			}
		}
		dt := cfg.CFL * dx / smax
		if t+dt > cfg.TEnd {
			dt = cfg.TEnd - t
		}
		if stepOnce(f, s, f.FromFloat64(dt/dx)) {
			return s, steps, true
		}
		t += dt
		steps++
	}
	return s, steps, false
}

// pressureF64 evaluates pressure of cell i in float64 for the
// controller.
func pressureF64(f arith.Format, s *State, i int) float64 {
	rho := f.ToFloat64(s.Rho[i])
	mom := f.ToFloat64(s.Mom[i])
	e := f.ToFloat64(s.Ener[i])
	return (gamma - 1) * (e - 0.5*mom*mom/rho)
}

// stepOnce applies one explicit Euler step with Rusanov fluxes and
// outflow boundaries, entirely in the format. Reports failure on
// exceptional values.
func stepOnce(f arith.Format, s *State, lambda arith.Num) bool {
	n := len(s.Rho)
	half := f.FromFloat64(0.5)
	gm1 := f.FromFloat64(gamma - 1)
	g := f.FromFloat64(gamma)

	// Primitive and flux evaluation per cell.
	type cellFlux struct {
		fRho, fMom, fEner arith.Num
		speed             arith.Num // |u| + c
	}
	fluxes := make([]cellFlux, n)
	for i := 0; i < n; i++ {
		rho, mom, e := s.Rho[i], s.Mom[i], s.Ener[i]
		u := f.Div(mom, rho)
		// p = (γ-1)(E - ½ρu²) = (γ-1)(E - ½·mom·u)
		ke := f.Mul(half, f.Mul(mom, u))
		p := f.Mul(gm1, f.Sub(e, ke))
		c := f.Sqrt(f.Div(f.Mul(g, p), rho))
		au := u
		if f.Less(au, f.Zero()) {
			au = f.Neg(au)
		}
		fluxes[i] = cellFlux{
			fRho:  mom,
			fMom:  f.Add(f.Mul(mom, u), p),
			fEner: f.Mul(u, f.Add(e, p)),
			speed: f.Add(au, c),
		}
		if f.Bad(p) || f.Bad(c) {
			return true
		}
	}

	// Interface fluxes: Rusanov. Boundary cells copy themselves
	// (outflow).
	numRho := make([]arith.Num, n+1)
	numMom := make([]arith.Num, n+1)
	numEner := make([]arith.Num, n+1)
	iface := func(l, r int) (arith.Num, arith.Num, arith.Num) {
		a := fluxes[l].speed
		if f.Less(a, fluxes[r].speed) {
			a = fluxes[r].speed
		}
		avg := func(fl, fr, ul, ur arith.Num) arith.Num {
			central := f.Mul(half, f.Add(fl, fr))
			diss := f.Mul(half, f.Mul(a, f.Sub(ur, ul)))
			return f.Sub(central, diss)
		}
		return avg(fluxes[l].fRho, fluxes[r].fRho, s.Rho[l], s.Rho[r]),
			avg(fluxes[l].fMom, fluxes[r].fMom, s.Mom[l], s.Mom[r]),
			avg(fluxes[l].fEner, fluxes[r].fEner, s.Ener[l], s.Ener[r])
	}
	for i := 1; i < n; i++ {
		numRho[i], numMom[i], numEner[i] = iface(i-1, i)
	}
	// Outflow boundaries: interface flux equals the cell flux.
	numRho[0], numMom[0], numEner[0] = fluxes[0].fRho, fluxes[0].fMom, fluxes[0].fEner
	numRho[n], numMom[n], numEner[n] = fluxes[n-1].fRho, fluxes[n-1].fMom, fluxes[n-1].fEner

	for i := 0; i < n; i++ {
		s.Rho[i] = f.Sub(s.Rho[i], f.Mul(lambda, f.Sub(numRho[i+1], numRho[i])))
		s.Mom[i] = f.Sub(s.Mom[i], f.Mul(lambda, f.Sub(numMom[i+1], numMom[i])))
		s.Ener[i] = f.Sub(s.Ener[i], f.Mul(lambda, f.Sub(numEner[i+1], numEner[i])))
		if f.Bad(s.Rho[i]) || f.Bad(s.Mom[i]) || f.Bad(s.Ener[i]) {
			return true
		}
	}
	return false
}

// Density returns the density profile as float64.
func (s *State) Density() []float64 {
	out := make([]float64, len(s.Rho))
	for i := range s.Rho {
		out[i] = s.F.ToFloat64(s.Rho[i])
	}
	return out
}

// RelErrorL2 compares two profiles: ‖a-b‖₂/‖b‖₂.
func RelErrorL2(a, b []float64) float64 {
	var num, den float64
	for i := range b {
		d := a[i] - b[i]
		num += float64(d * d)
		den += float64(b[i] * b[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
