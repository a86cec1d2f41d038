package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerSurface(t *testing.T) {
	tr := obs.New()
	tr.SetMeta(obs.Meta{Schema: obs.TraceSchema, GoVersion: "go1.24.0", Host: "testhost", Commit: "deadbeef"})
	tr.Counter("spice.decks").Add(7)
	tr.Gauge("route.overflow_edges").Set(2.5)
	for i := 1; i <= 100; i++ {
		tr.Histogram("spice.op.solve_ns").Observe(float64(i))
	}
	root := tr.Start("flow.run")
	root.Start("flow.place").End()

	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE primopt_spice_decks counter",
		"primopt_spice_decks 7",
		"# TYPE primopt_route_overflow_edges gauge",
		"primopt_route_overflow_edges 2.5",
		"# TYPE primopt_spice_op_solve_ns summary",
		`primopt_spice_op_solve_ns{quantile="0.5"}`,
		"primopt_spice_op_solve_ns_count 100",
		"primopt_spice_op_solve_ns_min 1",
		"primopt_spice_op_solve_ns_max 100",
		`primopt_build_info{go_version="go1.24.0",host="testhost",commit="deadbeef"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /spans snapshots a live (unended) root span mid-run.
	code, body = get(t, srv.URL+"/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	var payload struct {
		Meta  *obs.Meta        `json:"meta"`
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/spans not JSON: %v\n%s", err, body)
	}
	if payload.Meta == nil || payload.Meta.Host != "testhost" {
		t.Errorf("/spans meta = %+v", payload.Meta)
	}
	if len(payload.Spans) != 2 || payload.Spans[0].Name != "flow.run" {
		t.Errorf("/spans = %+v", payload.Spans)
	}
	root.End()

	code, body = get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// TestHandlerReady: /readyz reflects the injected readiness check —
// ready while the daemon admits, 503 "draining" once it stops — while
// /healthz (liveness) stays green throughout, and the plain Handler
// (no check) is always ready.
func TestHandlerReady(t *testing.T) {
	var draining atomic.Bool
	srv := httptest.NewServer(HandlerReady(obs.New(), func() bool { return !draining.Load() }))
	defer srv.Close()

	if code, body := get(t, srv.URL+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("/readyz before drain = %d %q", code, body)
	}
	draining.Store(true)
	if code, body := get(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("/readyz during drain = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, liveness must stay green", code)
	}

	plain := httptest.NewServer(Handler(nil))
	defer plain.Close()
	if code, body := get(t, plain.URL+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("/readyz with no check = %d %q", code, body)
	}
}

func TestHandlerNilTrace(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz on nil trace = %d", code)
	}
	if code, body := get(t, srv.URL+"/spans"); code != http.StatusOK || !strings.Contains(body, `"spans":[]`) {
		t.Errorf("/spans on nil trace = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics on nil trace = %d", code)
	}
}

// The acceptance test for the tentpole: the surface serves /metrics,
// /spans, and /healthz during a live flow run on an injected trace,
// with the run's spans visible mid-flight and its solver metrics
// after it completes.
func TestLiveRunTelemetry(t *testing.T) {
	tech := pdk.Default()
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	tr.SetMemAttribution(true)
	// The run carries tr on its context, so the solver layers (spice
	// Newton counters, deck accounting) report into the same trace as
	// the flow's spans.
	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := flow.RunContext(context.Background(), tech, bm, flow.Optimized, flow.Params{Seed: 1, Trace: tr})
		done <- err
	}()

	// Poll /spans until the in-flight run is visible. The flow.run
	// root appears as soon as the run starts, well before it ends.
	deadline := time.Now().Add(30 * time.Second)
	sawLive := false
	for time.Now().Before(deadline) && !sawLive {
		code, body := get(t, srv.URL+"/spans")
		if code != http.StatusOK {
			t.Fatalf("/spans status %d mid-run", code)
		}
		if strings.Contains(body, `"name":"flow.run"`) {
			sawLive = true
		}
	}
	if !sawLive {
		t.Error("flow.run span never appeared on /spans during the run")
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during run = %d", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("flow run: %v", err)
	}
	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{"primopt_spice_", "primopt_place_anneal_", "primopt_route_"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after run missing %q family", want)
		}
	}
	_, body = get(t, srv.URL+"/spans")
	if !strings.Contains(body, "alloc_bytes") {
		t.Error("/spans missing alloc_bytes attribution after run")
	}
}

func TestStartAddrClose(t *testing.T) {
	tr := obs.New()
	tr.Counter("x.y").Inc()
	s, err := Start("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("Addr = %q, want a bound port", addr)
	}
	if code, body := get(t, "http://"+addr+"/metrics"); code != http.StatusOK || !strings.Contains(body, "primopt_x_y") {
		t.Errorf("metrics over Start server = %d %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still serving after Close")
	}
	var nilServer *Server
	if nilServer.Addr() != "" || nilServer.Close() != nil {
		t.Error("nil server accessors not zero")
	}
}
