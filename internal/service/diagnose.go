package service

import (
	"net/http"

	"positlab/internal/arith"
	"positlab/internal/shadow"
)

// diagnoseRequest is the POST /v1/diagnose body: the same system
// selection as /v1/solve plus shadow-measurement knobs.
type diagnoseRequest struct {
	// Matrix / MatrixMarket / B select the system exactly like
	// /v1/solve: a Table I suite name, or an inline upload.
	Matrix       string    `json:"matrix,omitempty"`
	MatrixMarket string    `json:"matrix_market,omitempty"`
	B            []float64 `json:"b,omitempty"`
	// Solver is "cg", "cholesky", or "ir"; Format the working
	// (cg, cholesky) or factorization (ir) format.
	Solver string `json:"solver"`
	Format string `json:"format"`
	// Tol / MaxIter / Rescale / Higham follow /v1/solve's semantics.
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	Rescale bool    `json:"rescale,omitempty"`
	Higham  bool    `json:"higham,omitempty"`
	// SampleEvery measures every SampleEvery-th format operation
	// (1 = full shadow; 0 = the default stride of 64). TopK bounds the
	// worst-operations list, TracePoints the divergence trace.
	SampleEvery int `json:"sample_every,omitempty"`
	TopK        int `json:"top_k,omitempty"`
	TracePoints int `json:"trace_points,omitempty"`
	// IncludeSVG / IncludeCSV attach the rendered error-decay figure
	// and CSV artifacts to the response.
	IncludeSVG bool `json:"include_svg,omitempty"`
	IncludeCSV bool `json:"include_csv,omitempty"`
}

// diagnoseResponse is the shadow report with optional rendered
// artifacts attached.
type diagnoseResponse struct {
	*shadow.Report
	SVG        string `json:"svg,omitempty"`
	TraceCSV   string `json:"trace_csv,omitempty"`
	ColumnsCSV string `json:"columns_csv,omitempty"`
	StatsCSV   string `json:"stats_csv,omitempty"`
}

// handleDiagnose implements POST /v1/diagnose: one shadow-diagnosed
// solver run. The format run inside is bit-identical to the /v1/solve
// run of the same request; the response additionally carries the
// divergence trace, per-op error telemetry, and envelope comparison.
// Runs under the same admission control and per-request timeout as
// /v1/solve; completed runs feed the shadow gauges in /debug/metrics.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req diagnoseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	sreq := &solveRequest{
		Matrix: req.Matrix, MatrixMarket: req.MatrixMarket, B: req.B,
		Solver: req.Solver, Format: req.Format, Tol: req.Tol, MaxIter: req.MaxIter,
	}
	if _, serr := validateSolve(sreq); serr != nil {
		httpError(w, serr.status, serr.msg)
		return
	}
	a, b, name, err := s.loadSystem(sreq)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	f, _ := arith.ByName(sreq.Format) // validateSolve resolved it
	rep, err := shadow.Diagnose(r.Context(), a, b, name, shadow.Options{
		Solver:      sreq.Solver,
		Format:      f,
		Sample:      shadow.Config{SampleEvery: req.SampleEvery, TopK: req.TopK},
		Tol:         req.Tol,
		MaxIter:     req.MaxIter,
		Rescale:     req.Rescale,
		Higham:      req.Higham,
		TracePoints: req.TracePoints,
	})
	if err != nil {
		if cerr := r.Context().Err(); cerr != nil {
			httpError(w, statusFromCtx(cerr), "diagnose canceled: "+cerr.Error())
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.metrics.Shadow.Merge(&rep.Telemetry)
	resp := diagnoseResponse{Report: rep}
	if req.IncludeSVG {
		resp.SVG = rep.DecaySVG()
	}
	if req.IncludeCSV {
		resp.TraceCSV = rep.TraceCSV()
		resp.ColumnsCSV = rep.ColumnsCSV()
		resp.StatsCSV = rep.StatsCSV()
	}
	writeJSON(w, http.StatusOK, resp)
}
