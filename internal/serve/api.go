// The request API of the layout-generation daemon:
//
//	POST /v1/generate   run one flow, answer with metrics + reports
//	GET  /v1/circuits   the benchmark vocabulary and knob defaults
//
// Response bodies are a pure function of the deterministic flow
// result: metrics, degradation status, and the verification report
// depend only on (circuit, mode, seed, knobs), never on wall clock or
// scheduling, so identical requests — concurrent or not — read
// byte-identical bodies. Everything volatile travels in headers
// (X-Primopt-Request-Id, X-Primopt-Runtime-Ms) or in the
// opt-in trace section ("trace": true), which carries the
// per-request span forest and is naturally timing-dependent.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/obs/telemetry"
	"primopt/internal/verify"
)

// Request is the POST /v1/generate body: a flow.Request, whose Check
// is the admission rule set. Zero-valued knobs take the documented
// defaults; a request Check rejects is a 400.
type Request = flow.Request

// Response is the POST /v1/generate success body.
type Response struct {
	Circuit string             `json:"circuit"`
	Mode    string             `json:"mode"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
	// MetricOrder and Units carry the benchmark's reporting order and
	// display units for the metrics map.
	MetricOrder []string          `json:"metric_order,omitempty"`
	Units       map[string]string `json:"units,omitempty"`
	// Sims counts the SPICE evaluations this run performed (cache
	// hits excluded — a fully warm run reports its replayed total).
	Sims int `json:"sims"`
	// Degraded maps each element the run completed without to the
	// reason it fell down the graceful-degradation ladder.
	Degraded map[string]string `json:"degraded,omitempty"`
	// Verify is the DRC/LVS report when the request asked for it.
	Verify *verify.Report `json:"verify,omitempty"`
	// Trace is the opt-in per-request trace dump.
	Trace *TraceDump `json:"trace,omitempty"`
}

// TraceDump is the per-request observability snapshot.
type TraceDump struct {
	Spans   []obs.SpanRecord   `json:"spans"`
	Metrics []obs.MetricRecord `json:"metrics"`
}

// ErrorBody is every non-200 response body.
type ErrorBody struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// Error kinds, one per failure class a client can act on.
const (
	kindBadRequest = "bad_request" // 400: malformed body or unknown knob value
	kindMethod     = "method"      // 405: wrong HTTP method
	kindShed       = "shed"        // 429: admission queue full, retry later
	kindPanic      = "panic"       // 500: request panicked (isolated; daemon fine)
	kindInternal   = "internal"    // 500: flow failed
	kindDraining   = "draining"    // 503: daemon refusing new work
	kindCanceled   = "canceled"    // 503: run canceled (drain or client gone)
	kindTimeout    = "timeout"     // 504: per-request deadline expired
)

func statusFor(kind string) int {
	switch kind {
	case kindBadRequest:
		return http.StatusBadRequest
	case kindMethod:
		return http.StatusMethodNotAllowed
	case kindShed:
		return http.StatusTooManyRequests
	case kindDraining, kindCanceled:
		return http.StatusServiceUnavailable
	case kindTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func errorOutcome(kind, msg string) *outcome {
	body, err := json.Marshal(ErrorBody{Kind: kind, Error: msg})
	if err != nil {
		body = []byte(`{"kind":"internal","error":"error encoding failed"}`)
	}
	return &outcome{status: statusFor(kind), body: append(body, '\n')}
}

// Handler mounts the request API and the telemetry surface on one
// mux. /readyz reflects drain state; /healthz stays green for the
// daemon's whole life (a draining daemon is alive, just not ready).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/circuits", s.handleCircuits)
	mux.Handle("/", telemetry.HandlerReady(s.tr, func() bool { return !s.draining.Load() }))
	return mux
}

// handleGenerate is the admission path: validate, enqueue (or shed),
// then wait for the worker's terminal outcome.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.tr.Counter("serve.requests").Inc()
	if r.Method != http.MethodPost {
		writeOutcome(w, errorOutcome(kindMethod, "POST only"), 0)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeOutcome(w, errorOutcome(kindBadRequest, "reading body: "+err.Error()), 0)
		return
	}
	var req Request
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeOutcome(w, errorOutcome(kindBadRequest, "parsing body: "+err.Error()), 0)
			return
		}
	}
	mode, err := req.Check()
	if err != nil {
		writeOutcome(w, errorOutcome(kindBadRequest, err.Error()), 0)
		return
	}

	id := s.reqSeq.Add(1)
	w.Header().Set("X-Primopt-Request-Id", strconv.FormatInt(id, 10))
	j := &job{req: req, mode: mode, timeout: s.cfg.requestTimeout(req.TimeoutMs), clientCtx: r.Context(), done: make(chan *outcome, 1)}
	s.inflight.Add(1)
	switch kind := s.admit(j); kind {
	case "":
		s.tr.Counter("serve.accepted").Inc()
		s.shedStreak.Store(0)
	case kindShed:
		s.inflight.Done()
		s.shedStreak.Add(1)
		s.tr.Counter("serve.shed").Inc()
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeOutcome(w, errorOutcome(kindShed, "admission queue full"), 0)
		return
	default: // draining
		s.inflight.Done()
		s.tr.Counter("serve.rejected_draining").Inc()
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeOutcome(w, errorOutcome(kindDraining, "daemon is draining"), 0)
		return
	}

	select {
	case out := <-j.done:
		writeOutcome(w, out, out.runtime)
	case <-r.Context().Done():
		// Client gone. The worker still finishes the job (its context
		// is canceled via AfterFunc, so the flow unwinds promptly) and
		// delivers to the buffered channel; there is just no one left
		// to read the bytes.
		s.tr.Counter("serve.client_gone").Inc()
	}
}

// handleCircuits serves the benchmark vocabulary.
func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeOutcome(w, errorOutcome(kindMethod, "GET only"), 0)
		return
	}
	body, err := json.Marshal(struct {
		Circuits []string `json:"circuits"`
		Modes    []string `json:"modes"`
	}{circuits.Names(), flow.ModeNames()})
	if err != nil {
		writeOutcome(w, errorOutcome(kindInternal, err.Error()), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(body, '\n')); err != nil {
		return
	}
}

func writeOutcome(w http.ResponseWriter, out *outcome, runtime time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	if runtime > 0 {
		w.Header().Set("X-Primopt-Runtime-Ms", strconv.FormatInt(runtime.Milliseconds(), 10))
	}
	w.WriteHeader(out.status)
	if _, err := w.Write(out.body); err != nil {
		return
	}
}

// runRequest builds the request's circuit, runs the flow on it and
// renders the terminal outcome. Runs on a worker, inside its recover
// barrier.
func (s *Server) runRequest(ctx context.Context, j *job) *outcome {
	req := j.req
	reqTr := obs.New()
	defer s.foldRequestMetrics(reqTr)

	bm, err := circuits.Build(s.tech, req.Circuit, req.Stages)
	var res *flow.Result
	if err == nil {
		p := req.Params()
		p.Optimize.Cache = s.cache
		p.Trace = reqTr
		p.Fault = s.inj
		res, err = s.runFlow(ctx, s.tech, bm, j.mode, p)
	}
	if err != nil {
		switch {
		case s.baseCtx.Err() != nil:
			s.tr.Counter("serve.canceled").Inc()
			return errorOutcome(kindCanceled, "run canceled: daemon draining")
		case j.clientCtx.Err() != nil:
			s.tr.Counter("serve.canceled").Inc()
			return errorOutcome(kindCanceled, "run canceled: client disconnected")
		case errors.Is(err, context.DeadlineExceeded):
			s.tr.Counter("serve.timeouts").Inc()
			return errorOutcome(kindTimeout, fmt.Sprintf("deadline %s exceeded: %v", j.timeout, err))
		default:
			s.tr.Counter("serve.errors").Inc()
			return errorOutcome(kindInternal, err.Error())
		}
	}

	resp := &Response{
		Circuit:     req.Circuit,
		Mode:        j.mode.String(),
		Seed:        req.Seed,
		Metrics:     res.Metrics,
		MetricOrder: bm.MetricOrder,
		Units:       bm.MetricUnit,
		Sims:        res.Sims,
		Degraded:    res.Degraded,
		Verify:      res.Verify,
	}
	if req.Trace {
		spans, metrics := reqTr.Snapshot()
		resp.Trace = &TraceDump{Spans: spans, Metrics: metrics}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.tr.Counter("serve.errors").Inc()
		return errorOutcome(kindInternal, "encoding response: "+err.Error())
	}
	s.tr.Counter("serve.ok").Inc()
	return &outcome{status: http.StatusOK, body: append(body, '\n')}
}
