package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"positlab/internal/arith"
	"positlab/internal/core"
	"positlab/internal/experiments"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/mmarket"
)

// solveRequest is the POST /v1/solve body.
type solveRequest struct {
	// Matrix names a Table I suite matrix (e.g. "bcsstk01");
	// MatrixMarket uploads one inline instead. Exactly one must be
	// set.
	Matrix       string `json:"matrix,omitempty"`
	MatrixMarket string `json:"matrix_market,omitempty"`
	// B is the right-hand side; when omitted it defaults to the
	// suite's b for named matrices and to A·1 for uploads.
	B []float64 `json:"b,omitempty"`
	// Solver is "cg", "cholesky", or "ir".
	Solver string `json:"solver"`
	// Format is the working (cg, cholesky) or factorization (ir)
	// format name.
	Format string `json:"format"`
	// Tol is the convergence threshold (cg: relative residual,
	// default 1e-5; ir: backward error, default 1e-15).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps iterations (cg: default 10·N; ir: default 1000).
	MaxIter int `json:"max_iter,omitempty"`
	// Rescale applies the paper's power-of-two system rescaling
	// before cg/cholesky (Fig. 7 / Fig. 9 preparation).
	Rescale bool `json:"rescale,omitempty"`
	// Higham applies Algorithm 5 equilibration with the format-aware
	// μ before ir (Table III preparation).
	Higham bool `json:"higham,omitempty"`
	// ReturnX includes the solution vector in the response. Off by
	// default: x has N entries and most callers only want the
	// convergence metrics.
	ReturnX bool `json:"return_x,omitempty"`
}

// solveResponse is the POST /v1/solve body on success.
type solveResponse struct {
	Solver string `json:"solver"`
	Format string `json:"format"`
	Matrix string `json:"matrix"`
	N      int    `json:"n"`
	// Iterations/Converged/Failed: solver progress. Failed covers
	// arithmetic exceptions (cg) and factorization breakdown
	// (cholesky, ir).
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	Failed     bool `json:"failed"`
	// RelResidual is cg's final ‖r‖/‖b‖; BackwardError the
	// normwise relative backward error (cholesky, ir); FactorError
	// ir's low-precision factorization error. Null when not
	// applicable or non-finite.
	RelResidual   jsonFloat `json:"rel_residual,omitempty"`
	BackwardError jsonFloat `json:"backward_error,omitempty"`
	FactorError   jsonFloat `json:"factor_error,omitempty"`
	// History is the per-iteration residual (cg) or backward-error
	// (ir) series.
	History []jsonFloat `json:"history,omitempty"`
	// X is the solution vector, present only with return_x.
	X []jsonFloat `json:"x,omitempty"`
	// Ops counts the format arithmetic this request performed.
	Ops    arith.OpCounts `json:"ops"`
	WallMS float64        `json:"wall_ms"`
}

// solveError carries an HTTP status with a failed solve so both
// callers of runSolve (the synchronous handler and the job executor)
// can map it to their own error model.
type solveError struct {
	status int
	msg    string
}

func (e *solveError) Error() string { return e.msg }

// handleSolve implements POST /v1/solve: one solver run, in the
// requested format, on a named suite matrix or an uploaded
// MatrixMarket system. The request context (per-request timeout,
// client disconnect, server drain) is threaded into the solver's
// per-iteration checkpoints.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	resp, serr := s.runSolve(r.Context(), &req, core.Hooks{})
	if serr != nil {
		httpError(w, serr.status, serr.msg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// validateSolve maps the request to a validated core.Config (see
// core.ParseConfig) and normalizes req.Solver. It is called at HTTP
// time (solve and diagnose) and at job submission, so bad specs are
// rejected before they are journaled.
func validateSolve(req *solveRequest) (core.Config, *solveError) {
	cfg, err := core.ParseConfig(req.Solver, req.Format, req.Rescale, req.Higham, req.Tol, req.MaxIter)
	if err != nil {
		return cfg, &solveError{http.StatusBadRequest, err.Error()}
	}
	req.Solver = cfg.Method.String()
	return cfg, nil
}

// runSolve executes one solver request through core.SolveCtx. It is
// the shared engine of the synchronous POST /v1/solve handler and the
// async job executor; the latter passes checkpoint cadence and resume
// state in h. Because the whole pipeline — system construction,
// rescaling, format conversion, solver loop — is deterministic, a run
// resumed from a checkpoint returns results bit-identical to an
// uninterrupted one.
func (s *Server) runSolve(ctx context.Context, req *solveRequest, h core.Hooks) (solveResponse, *solveError) {
	cfg, serr := validateSolve(req)
	if serr != nil {
		return solveResponse{}, serr
	}
	a, b, name, err := s.loadSystem(req)
	if err != nil {
		return solveResponse{}, &solveError{http.StatusBadRequest, err.Error()}
	}

	// Two counters see the same tally: the server-wide one and this
	// request's report. Results stay bit-identical.
	reqOps := &arith.AtomicOpCounts{}
	h.Observers = []arith.Observer{s.metrics.Ops, reqOps}
	start := time.Now()
	sol, err := core.SolveCtx(ctx, core.Problem{A: a, B: b}, cfg, h)
	if err != nil {
		return solveResponse{}, &solveError{statusFromCtx(err), "solve canceled: " + err.Error()}
	}
	resp := solveResponse{
		Solver: req.Solver, Format: sol.Format, Matrix: name, N: a.N,
		Iterations: sol.Iterations, Converged: sol.Converged, Failed: sol.Failed,
		RelResidual: jsonFloat(sol.RelResidual),
		FactorError: jsonFloat(sol.FactorError),
		History:     jsonFloats(sol.History),
	}
	if cfg.Method != core.MethodCG {
		// CG reports its recurrence residual instead.
		resp.BackwardError = jsonFloat(sol.BackwardError)
	}
	if req.ReturnX {
		resp.X = jsonFloats(sol.X)
	}
	resp.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	resp.Ops = reqOps.Snapshot()
	return resp, nil
}

// loadSystem resolves the request's linear system: a named Table I
// replica (generated once per process and shared with the experiment
// paths) or an uploaded MatrixMarket matrix.
func (s *Server) loadSystem(req *solveRequest) (*linalg.Sparse, []float64, string, error) {
	switch {
	case req.Matrix != "" && req.MatrixMarket != "":
		return nil, nil, "", fmt.Errorf("set either matrix or matrix_market, not both")
	case req.Matrix != "":
		// Validate the name first: experiments.Suite panics on unknown
		// names (it serves the runner, which recovers panics).
		if _, err := matgen.TargetByName(req.Matrix); err != nil {
			return nil, nil, "", err
		}
		m := experiments.Suite([]string{req.Matrix})[0]
		b := req.B
		if b == nil {
			b = m.B
		} else if len(b) != m.A.N {
			return nil, nil, "", fmt.Errorf("b has %d entries, matrix is %d×%d", len(b), m.A.N, m.A.N)
		}
		return m.A, b, req.Matrix, nil
	case req.MatrixMarket != "":
		a, _, err := mmarket.Read(strings.NewReader(req.MatrixMarket))
		if err != nil {
			return nil, nil, "", fmt.Errorf("matrix_market: %v", err)
		}
		if a.N == 0 {
			return nil, nil, "", fmt.Errorf("matrix_market: empty matrix (0×0)")
		}
		if a.N > s.cfg.MaxMatrixN {
			return nil, nil, "", fmt.Errorf("matrix dimension %d exceeds the %d limit", a.N, s.cfg.MaxMatrixN)
		}
		if !a.IsSymmetric(1e-12) {
			return nil, nil, "", fmt.Errorf("matrix_market: matrix is not symmetric; the solvers require SPD systems")
		}
		b := req.B
		if b == nil {
			// Default rhs: b = A·1, matching the suite's known-solution
			// convention.
			ones := make([]float64, a.N)
			for i := range ones {
				ones[i] = 1
			}
			b = make([]float64, a.N)
			a.MatVecF64(ones, b)
		} else if len(b) != a.N {
			return nil, nil, "", fmt.Errorf("b has %d entries, matrix is %d×%d", len(b), a.N, a.N)
		}
		return a, b, "uploaded", nil
	default:
		return nil, nil, "", fmt.Errorf("set matrix (a Table I name) or matrix_market (inline upload)")
	}
}
