// handlers.go: the /v1 endpoints — request/response DTOs, validation, and
// the shared admit → run-with-context → render pipeline.
//
// Responses are rendered with one canonical encoding (json.Marshal of typed
// structs, trailing newline) and carry no timing, identity or cache-state
// fields, so a given request body always produces the same bytes.

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/parallel"
)

// maxBodyBytes bounds request bodies; the largest legitimate request (a
// thresholds rate grid) is a few kilobytes.
const maxBodyBytes = 1 << 20

// FleetRequest is the body of POST /v1/fleet. Empty axis slices select the
// default heterogeneous mix, exactly like fleet.Config.
type FleetRequest struct {
	Badges   int      `json:"badges"`
	Seed     uint64   `json:"seed"`
	Workers  int      `json:"workers,omitempty"` // clamped to GOMAXPROCS
	Apps     []string `json:"apps,omitempty"`
	Policies []string `json:"policies,omitempty"`
	DPMs     []string `json:"dpms,omitempty"`
	// TimeoutMS is the server-side deadline for this request; 0 means no
	// deadline (the client disconnecting still cancels). Values above the
	// configured maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BadgeJSON is the wire form of one badge's result.
type BadgeJSON struct {
	Index         int     `json:"index"`
	App           string  `json:"app"`
	Policy        string  `json:"policy"`
	DPM           string  `json:"dpm"`
	EnergyJ       float64 `json:"energy_j"`
	MeanDelayS    float64 `json:"mean_delay_s"`
	SimTimeS      float64 `json:"sim_time_s"`
	AvgPowerW     float64 `json:"avg_power_w"`
	FramesDecoded int     `json:"frames_decoded"`
	Sleeps        int     `json:"sleeps"`
}

// AggregateJSON is the wire form of the batch aggregates.
type AggregateJSON struct {
	Runs         int     `json:"runs"`
	TotalEnergyJ float64 `json:"total_energy_j"`
	TotalSimS    float64 `json:"total_sim_s"`
	EnergyP50J   float64 `json:"energy_p50_j"`
	EnergyP90J   float64 `json:"energy_p90_j"`
	EnergyP99J   float64 `json:"energy_p99_j"`
	DelayP50S    float64 `json:"delay_p50_s"`
	DelayP90S    float64 `json:"delay_p90_s"`
	DelayP99S    float64 `json:"delay_p99_s"`
}

// FailedBadgeJSON is the wire form of one failed badge: the identifying
// spec plus the cause. Failures are index-ordered, like results.
type FailedBadgeJSON struct {
	Index  int    `json:"index"`
	App    string `json:"app"`
	Policy string `json:"policy"`
	DPM    string `json:"dpm"`
	Error  string `json:"error"`
}

// FleetResponse is the 200 body of POST /v1/fleet. Status is "ok" when
// every badge succeeded and "partial" when some failed: the engine
// isolates per-badge panics and errors (fleet.BadgeError), aggregates over
// the survivors and lists the casualties here instead of failing the
// request.
type FleetResponse struct {
	Status string            `json:"status"`
	Agg    AggregateJSON     `json:"agg"`
	Badges []BadgeJSON       `json:"badges"`
	Failed []FailedBadgeJSON `json:"failed,omitempty"`
}

// RunRequest is the body of POST /v1/run: one badge, fully specified.
// Empty fields take the first default-axis value.
type RunRequest struct {
	App       string `json:"app,omitempty"`
	Policy    string `json:"policy,omitempty"`
	DPM       string `json:"dpm,omitempty"`
	Seed      uint64 `json:"seed"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// RunResponse is the 200 body of POST /v1/run.
type RunResponse struct {
	Status string    `json:"status"`
	Badge  BadgeJSON `json:"badge"`
}

// ThresholdsRequest is the body of POST /v1/thresholds: a candidate rate
// grid plus optional overrides of the paper-default detector
// characterisation knobs (zero values keep the defaults).
type ThresholdsRequest struct {
	Rates                   []float64 `json:"rates"`
	WindowSize              int       `json:"window_size,omitempty"`
	Confidence              float64   `json:"confidence,omitempty"`
	CharacterisationWindows int       `json:"characterisation_windows,omitempty"`
	Seed                    uint64    `json:"seed,omitempty"`
	TimeoutMS               int64     `json:"timeout_ms,omitempty"`
}

// ThresholdsResponse is the 200 body of POST /v1/thresholds: the threshold
// table in changepoint.ThresholdSet order. Whether it was computed fresh or
// served from cache is deliberately not part of the body (it would break
// byte-identity across repeats); cache outcomes are on /metrics.
type ThresholdsResponse struct {
	Status     string    `json:"status"`
	WindowSize int       `json:"window_size"`
	Confidence float64   `json:"confidence"`
	Ratios     []float64 `json:"ratios"`
	Values     []float64 `json:"values"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Status string `json:"status"`
	Error  string `json:"error"`
}

// respJSON renders v with the canonical encoding; this is the one
// json.Marshal site for response bodies, so every path — fresh, joined or
// replayed — emits identical bytes for identical values. Marshal failure
// on these closed DTO types is unreachable.
func respJSON(code int, v any) response {
	body, err := json.Marshal(v)
	if err != nil {
		return response{
			code: http.StatusInternalServerError,
			body: []byte(`{"status":"error","error":"encoding failure"}` + "\n"),
		}
	}
	return response{code: code, body: append(body, '\n')}
}

// writeResponse puts a rendered response on the wire.
func writeResponse(w http.ResponseWriter, resp response) {
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(resp.body)))
	w.WriteHeader(resp.code)
	w.Write(resp.body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeResponse(w, respJSON(code, v))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Status: "error", Error: msg})
}

// cancelledResponse answers a request whose context died mid-run. The
// message is fixed: the engine's joined cancellation error varies with
// shard timing and has no place in a response body.
func cancelledResponse() response {
	return respJSON(http.StatusGatewayTimeout, errorResponse{
		Status: "cancelled",
		Error:  "deadline exceeded or client gone before the run completed",
	})
}

func writeCancelled(w http.ResponseWriter) {
	writeResponse(w, cancelledResponse())
}

// readBody drains the request body under the hard cap, answering 413 when
// the client exceeds it (MaxBytesReader also severs the connection, so an
// unbounded sender cannot keep streaming).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, rt *route) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		rt.failures.Inc()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// decodeBytes strictly decodes a request body into v (unknown fields are
// errors — they are silent typos of the knobs above).
func decodeBytes(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %v", err)
	}
	return nil
}

// admitResponse maps an admission failure to its HTTP response.
func (s *Server) admitResponse(err error) response {
	switch {
	case errors.Is(err, errShed):
		resp := respJSON(http.StatusTooManyRequests, errorResponse{
			Status: "shed",
			Error:  "admission queue full; retry later",
		})
		resp.retryAfter = s.retryAfterValue()
		return resp
	case errors.Is(err, errDraining):
		// The drain will finish; tell well-behaved clients when to come
		// back instead of leaving them to guess.
		resp := respJSON(http.StatusServiceUnavailable, errorResponse{
			Status: "error",
			Error:  "server is draining",
		})
		resp.retryAfter = s.retryAfterValue()
		return resp
	default: // context cancelled while queued
		s.cCanceled.Inc()
		return cancelledResponse()
	}
}

// parseFleetConfig validates a FleetRequest against the server limits and
// lowers it to a fleet.Config.
func (s *Server) parseFleetConfig(req FleetRequest) (fleet.Config, error) {
	if req.Badges < 1 {
		return fleet.Config{}, fmt.Errorf("badges must be >= 1, got %d", req.Badges)
	}
	if req.Badges > s.cfg.MaxBadges {
		return fleet.Config{}, fmt.Errorf("badges %d exceeds the server limit %d", req.Badges, s.cfg.MaxBadges)
	}
	if req.TimeoutMS < 0 {
		return fleet.Config{}, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	pols := make([]experiments.PolicyKind, 0, len(req.Policies))
	for _, p := range req.Policies {
		k, err := experiments.ParsePolicyKind(p)
		if err != nil {
			return fleet.Config{}, err
		}
		pols = append(pols, k)
	}
	// A request may shrink the shard pool but never grow it past
	// GOMAXPROCS: the engine starts one goroutine per worker, each holding
	// a live badge, and reports are identical for any worker count.
	cfg := fleet.Config{
		Badges:   req.Badges,
		Seed:     req.Seed,
		Workers:  min(req.Workers, parallel.Workers(0)),
		Apps:     req.Apps,
		Policies: pols,
		DPMs:     req.DPMs,
	}
	// Surface app/DPM typos as 400s now rather than 500s mid-run: the spec
	// derivation is the cheap, pure part of the engine.
	if _, err := fleet.Validate(cfg); err != nil {
		return fleet.Config{}, err
	}
	return cfg, nil
}

func badgeJSON(b fleet.BadgeResult) BadgeJSON {
	return BadgeJSON{
		Index:         b.Index,
		App:           b.App,
		Policy:        b.Policy.WireName(),
		DPM:           b.DPM,
		EnergyJ:       b.EnergyJ,
		MeanDelayS:    b.MeanDelayS,
		SimTimeS:      b.SimTimeS,
		AvgPowerW:     b.AvgPowerW,
		FramesDecoded: b.FramesDecoded,
		Sleeps:        b.Sleeps,
	}
}

func fleetResponse(rep *fleet.Report) FleetResponse {
	status := "ok"
	if len(rep.Failed) > 0 {
		status = "partial"
	}
	resp := FleetResponse{
		Status: status,
		Agg: AggregateJSON{
			Runs:         rep.Agg.Runs,
			TotalEnergyJ: rep.Agg.TotalEnergyJ,
			TotalSimS:    rep.Agg.TotalSimS,
			EnergyP50J:   rep.Agg.EnergyP50J,
			EnergyP90J:   rep.Agg.EnergyP90J,
			EnergyP99J:   rep.Agg.EnergyP99J,
			DelayP50S:    rep.Agg.DelayP50S,
			DelayP90S:    rep.Agg.DelayP90S,
			DelayP99S:    rep.Agg.DelayP99S,
		},
		Badges: make([]BadgeJSON, len(rep.Badges)),
	}
	for i, b := range rep.Badges {
		resp.Badges[i] = badgeJSON(b)
	}
	for _, f := range rep.Failed {
		resp.Failed = append(resp.Failed, FailedBadgeJSON{
			Index:  f.Index,
			App:    f.Spec.App,
			Policy: f.Spec.Policy.WireName(),
			DPM:    f.Spec.DPM,
			Error:  f.Cause.Error(),
		})
	}
	return resp
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer observeLatency(&s.rFleet, start)
	s.rFleet.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, ok := s.readBody(w, r, &s.rFleet)
	if !ok {
		return
	}
	var req FleetRequest
	if err := decodeBytes(body, &req); err != nil {
		s.rFleet.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg, err := s.parseFleetConfig(req)
	if err != nil {
		s.rFleet.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// cfg passed fleet.Validate above, so Hash cannot fail here.
	scope, _ := cfg.Hash()
	key, err := idemKey(r, "fleet", scope, body)
	if err != nil {
		s.rFleet.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveIdempotent(w, r, &s.rFleet, key, func() response {
		ctx, cancel := s.requestCtx(r, req.TimeoutMS)
		defer cancel()
		release, err := s.admit(ctx)
		if err != nil {
			return s.admitResponse(err)
		}
		defer release()
		rep, err := s.engineFleet(ctx, cfg)
		if err != nil {
			if ctx.Err() != nil {
				s.cCanceled.Inc()
				return cancelledResponse()
			}
			return respJSON(http.StatusInternalServerError, errorResponse{Status: "error", Error: err.Error()})
		}
		return respJSON(http.StatusOK, fleetResponse(rep))
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer observeLatency(&s.rRun, start)
	s.rRun.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, ok := s.readBody(w, r, &s.rRun)
	if !ok {
		return
	}
	var req RunRequest
	if err := decodeBytes(body, &req); err != nil {
		s.rRun.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A single badge is a one-element batch pinned to every axis, so /v1/run
	// shares the fleet engine — and its cancellation points — wholesale.
	freq := FleetRequest{
		Badges:    1,
		Seed:      req.Seed,
		Workers:   1,
		TimeoutMS: req.TimeoutMS,
	}
	if req.App != "" {
		freq.Apps = []string{req.App}
	}
	if req.Policy != "" {
		freq.Policies = []string{req.Policy}
	}
	if req.DPM != "" {
		freq.DPMs = []string{req.DPM}
	}
	cfg, err := s.parseFleetConfig(freq)
	if err != nil {
		s.rRun.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// cfg passed fleet.Validate above, so Hash cannot fail here.
	scope, _ := cfg.Hash()
	key, err := idemKey(r, "run", scope, body)
	if err != nil {
		s.rRun.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveIdempotent(w, r, &s.rRun, key, func() response {
		ctx, cancel := s.requestCtx(r, req.TimeoutMS)
		defer cancel()
		release, err := s.admit(ctx)
		if err != nil {
			return s.admitResponse(err)
		}
		defer release()
		rep, err := s.engineFleet(ctx, cfg)
		if err != nil {
			if ctx.Err() != nil {
				s.cCanceled.Inc()
				return cancelledResponse()
			}
			return respJSON(http.StatusInternalServerError, errorResponse{Status: "error", Error: err.Error()})
		}
		return respJSON(http.StatusOK, RunResponse{Status: "ok", Badge: badgeJSON(rep.Badges[0])})
	})
}

func (s *Server) handleThresholds(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer observeLatency(&s.rThr, start)
	s.rThr.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, ok := s.readBody(w, r, &s.rThr)
	if !ok {
		return
	}
	var req ThresholdsRequest
	if err := decodeBytes(body, &req); err != nil {
		s.rThr.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg := changepoint.DefaultConfig(req.Rates)
	if req.WindowSize > 0 {
		cfg.WindowSize = req.WindowSize
	}
	if req.Confidence > 0 {
		cfg.Confidence = req.Confidence
	}
	if req.CharacterisationWindows > 0 {
		cfg.CharacterisationWindows = req.CharacterisationWindows
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if err := cfg.Validate(); err != nil {
		s.rThr.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Thresholds have no fleet config hash; the body hash inside the key
	// already pins every knob.
	key, err := idemKey(r, "thresholds", "", body)
	if err != nil {
		s.rThr.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveIdempotent(w, r, &s.rThr, key, func() response {
		ctx, cancel := s.requestCtx(r, req.TimeoutMS)
		defer cancel()
		release, err := s.admit(ctx)
		if err != nil {
			return s.admitResponse(err)
		}
		defer release()
		// The characterisation itself is not context-aware (it is the cached,
		// offline Monte Carlo step); the deadline covers queue wait, and a
		// characterisation that outlives its requester still warms the cache.
		th, err := s.characterise(cfg)
		if err != nil {
			return respJSON(http.StatusInternalServerError, errorResponse{Status: "error", Error: err.Error()})
		}
		if ctx.Err() != nil {
			s.cCanceled.Inc()
			return cancelledResponse()
		}
		set := th.Snapshot()
		return respJSON(http.StatusOK, ThresholdsResponse{
			Status:     "ok",
			WindowSize: set.WindowSize,
			Confidence: set.Confidence,
			Ratios:     set.Ratios,
			Values:     set.Values,
		})
	})
}

// healthResponse is the /healthz body. InFlight/Queued are point-in-time
// transport state — /healthz is outside the byte-identity contract.
type healthResponse struct {
	Status   string `json:"status"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
}
