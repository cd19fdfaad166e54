package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"positlab/internal/arith"
)

// convertRequest is the POST /v1/convert body.
type convertRequest struct {
	// From and To are registered format names (arith.ByName spelling,
	// e.g. "float64", "posit32es2", "posit(16,1)").
	From string `json:"from"`
	To   string `json:"to"`
	// Values are the inputs, read as float64 (exact for every source
	// format) and first rounded into From.
	Values []float64 `json:"values"`
}

// convertResult is one value's conversion outcome.
type convertResult struct {
	// In is the request value as represented in From (the rounding
	// baseline: conversion error is measured against this, not the
	// raw JSON number).
	In jsonFloat `json:"in"`
	// Out is the value after re-rounding into To.
	Out jsonFloat `json:"out"`
	// Bits is To's bit pattern, hex.
	Bits string `json:"bits"`
	// AbsErr and RelErr measure Out against In; null when non-finite.
	AbsErr jsonFloat `json:"abs_err"`
	RelErr jsonFloat `json:"rel_err"`
	// Exact reports a lossless round trip: converting Out back into
	// From reproduces In's bit pattern.
	Exact bool `json:"exact"`
}

// convertStats aggregates a batch.
type convertStats struct {
	MaxAbsErr  jsonFloat `json:"max_abs_err"`
	MaxRelErr  jsonFloat `json:"max_rel_err"`
	MeanRelErr jsonFloat `json:"mean_rel_err"`
	// Exact counts losslessly round-tripped values.
	Exact int `json:"exact"`
}

// convertResponse is the POST /v1/convert body on success.
type convertResponse struct {
	From    string          `json:"from"`
	To      string          `json:"to"`
	Count   int             `json:"count"`
	Results []convertResult `json:"results"`
	Stats   convertStats    `json:"stats"`
}

// handleConvert implements POST /v1/convert: batch scalar conversion
// between two registered formats with per-value round-trip error
// analysis. Responses are rendered once and cached (LRU +
// singleflight), so identical concurrent batches are computed once
// and answered byte-identically.
func (s *Server) handleConvert(w http.ResponseWriter, r *http.Request) {
	var req convertRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Values) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d values exceeds the %d limit", len(req.Values), s.cfg.MaxBatch))
		return
	}
	from, err := arith.ByName(req.From)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	to, err := arith.ByName(req.To)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	body, cached, err := s.cache.Do(r.Context(), convertKey(from, to, req.Values), func() ([]byte, error) {
		return json.Marshal(s.convert(from, to, req.Values))
	})
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			httpError(w, statusFromCtx(ctxErr), ctxErr.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeCached(w, body, cached)
}

// convert performs the batch. Conversions are counted into the
// server-wide op counters.
func (s *Server) convert(from, to arith.Format, values []float64) convertResponse {
	fi := arith.Observe(from, s.metrics.Ops)
	ti := arith.Observe(to, s.metrics.Ops)
	resp := convertResponse{
		From:    from.Name(),
		To:      to.Name(),
		Count:   len(values),
		Results: make([]convertResult, 0, len(values)),
	}
	var maxAbs, maxRel, sumRel float64
	finiteRel := 0
	for _, v := range values {
		fn := fi.FromFloat64(v)
		in := from.ToFloat64(fn)
		tn := ti.FromFloat64(in)
		out := to.ToFloat64(tn)
		abs := math.Abs(out - in)
		rel := abs / math.Abs(in)
		if in == 0 && out == 0 {
			abs, rel = 0, 0
		}
		exact := from.FromFloat64(out) == fn
		bits, width := encodingBits(to, out)
		res := convertResult{
			In:     jsonFloat(in),
			Out:    jsonFloat(out),
			Bits:   fmt.Sprintf("0x%0*x", (width+3)/4, bits),
			AbsErr: jsonFloat(abs),
			RelErr: jsonFloat(rel),
			Exact:  exact,
		}
		resp.Results = append(resp.Results, res)
		if exact {
			resp.Stats.Exact++
		}
		if !math.IsNaN(abs) && !math.IsInf(abs, 0) && abs > maxAbs {
			maxAbs = abs
		}
		if !math.IsNaN(rel) && !math.IsInf(rel, 0) {
			if rel > maxRel {
				maxRel = rel
			}
			sumRel += rel
			finiteRel++
		}
	}
	resp.Stats.MaxAbsErr = jsonFloat(maxAbs)
	resp.Stats.MaxRelErr = jsonFloat(maxRel)
	if finiteRel > 0 {
		resp.Stats.MeanRelErr = jsonFloat(sumRel / float64(finiteRel))
	}
	return resp
}

// encodingBits returns x's canonical bit pattern in f's own encoding
// and the encoding width in bits. The fast value-domain formats store
// a float64 image in Num — not the format's pattern — so the encoding
// is recovered through the underlying posit/minifloat configuration;
// the native IEEE formats re-encode at their own width. x must
// already be representable in f (here it always is: x is the rounded
// Out), so this re-encoding is exact.
func encodingBits(f arith.Format, x float64) (uint64, int) {
	if c, ok := arith.PositConfig(f); ok {
		return uint64(c.FromFloat64(x)), c.N()
	}
	if m, ok := arith.MiniConfig(f); ok {
		return uint64(m.FromFloat64(x)), m.Width()
	}
	if f.Name() == "Float32" {
		return uint64(math.Float32bits(float32(x))), 32
	}
	return math.Float64bits(x), 64
}

// convertKey is the response-cache key: format names plus the exact
// bit patterns of the inputs (float64 semantics, not decimal
// spellings, so 1.0 and 1e0 share an entry and -0.0 does not alias
// 0.0).
func convertKey(from, to arith.Format, values []float64) string {
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "convert|%s|%s|", from.Name(), to.Name()) // hash.Hash writes cannot fail
	var buf [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // hash.Hash writes cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decodeBody reads and decodes a JSON request body with the size
// limit applied, writing the 4xx response itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return false
	}
	return true
}

// writeCached writes a cache-managed response body with its
// provenance in the X-Cache header (the body itself must stay
// byte-identical between hit and miss).
func writeCached(w http.ResponseWriter, body []byte, cached bool) {
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	writeBody(w, body)
}
