package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/place"
)

var tech = pdk.Default()

// stubFlow is the runFlow seam type, minus the fixed tech argument.
type stubFlow func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error)

// newStubServer builds a Server whose flow runs are the stub — the
// admission, isolation, deadline, and drain machinery under test,
// with no SPICE underneath.
func newStubServer(t *testing.T, cfg Config, run stubFlow) *Server {
	t.Helper()
	if cfg.Trace == nil {
		cfg.Trace = obs.New()
	}
	s, err := New(tech, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runFlow = func(ctx context.Context, tt *pdk.Tech, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		return run(ctx, bm, mode, p)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func okFlow(metrics map[string]float64) stubFlow {
	return func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		return &flow.Result{Benchmark: bm.Name, Mode: mode, Metrics: metrics, Sims: 7}, nil
	}
}

func post(t *testing.T, url, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST read: %v", err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

func errKind(t *testing.T, body string) string {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, body)
	}
	return e.Kind
}

func TestGenerateHappyPath(t *testing.T) {
	s := newStubServer(t, Config{}, okFlow(map[string]float64{"ugf": 1.5e9, "gain": 30}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, hdr, body := post(t, srv.URL, `{"circuit":"csamp","seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if resp.Circuit != "csamp" || resp.Mode != "optimized" || resp.Seed != 3 || resp.Sims != 7 {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Metrics["ugf"] != 1.5e9 {
		t.Errorf("metrics = %v", resp.Metrics)
	}
	if len(resp.MetricOrder) == 0 || len(resp.Units) == 0 {
		t.Errorf("metric order/units missing: %+v", resp)
	}
	if resp.Trace != nil {
		t.Error("trace attached without being requested")
	}
	if hdr.Get("X-Primopt-Request-Id") == "" || hdr.Get("X-Primopt-Runtime-Ms") == "" {
		t.Errorf("volatile headers missing: %v", hdr)
	}

	// Opt-in trace rides along when asked for.
	code, _, body = post(t, srv.URL, `{"circuit":"csamp","trace":true}`)
	if code != http.StatusOK {
		t.Fatalf("traced request: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Trace == nil {
		t.Errorf("traced request carried no trace: err=%v", err)
	}
}

// TestGenerateRejectsBadRequests: a body that does not parse and a
// request flow.Request.Check rejects are 400s before admission (the
// check's own cases are flow's TestRequestCheck), and a GET is a 405.
func TestGenerateRejectsBadRequests(t *testing.T) {
	var runs atomic.Int64
	s := newStubServer(t, Config{}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		runs.Add(1)
		return &flow.Result{}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"malformed json":       `{"circuit":`,
		"unknown circuit":      `{"circuit":"nand2"}`,
		"replicas above bound": fmt.Sprintf(`{"circuit":"csamp","place_replicas":%d}`, place.MaxReplicas+1),
	} {
		code, _, body := post(t, srv.URL, body)
		if code != http.StatusBadRequest || errKind(t, body) != kindBadRequest {
			t.Errorf("%s: got %d %s, want 400 %s", name, code, body, kindBadRequest)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("%d rejected requests reached the flow", n)
	}

	resp, err := http.Get(srv.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate = %d, want 405", resp.StatusCode)
	}
}

// TestNewRejectsMalformedFaultSpec: a fault spec that does not parse
// fails New, which primopt serve reports as a usage error.
func TestNewRejectsMalformedFaultSpec(t *testing.T) {
	if s, err := New(tech, Config{FaultSpec: "spice.op:explode"}); err == nil {
		s.Close()
		t.Fatal("New accepted a malformed fault spec")
	}
}

func TestCircuitsEndpoint(t *testing.T) {
	s := newStubServer(t, Config{}, okFlow(nil))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/circuits")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"csamp"`) || !strings.Contains(string(b), `"optimized"`) {
		t.Errorf("/v1/circuits = %d %s", resp.StatusCode, b)
	}
}

// TestPanicIsolation: a panicking request is a structured 500 for
// that request only — the worker recovers, the counter books it, and
// the very next request on the same pool succeeds.
func TestPanicIsolation(t *testing.T) {
	tr := obs.New()
	s := newStubServer(t, Config{Workers: 1, Trace: tr}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		if p.Seed == 666 {
			panic("deliberate test panic")
		}
		return &flow.Result{Metrics: map[string]float64{"ok": 1}}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, _, body := post(t, srv.URL, `{"circuit":"csamp","seed":666}`)
	if code != http.StatusInternalServerError || errKind(t, body) != kindPanic {
		t.Fatalf("panicking request = %d %s", code, body)
	}
	if !strings.Contains(body, "deliberate test panic") {
		t.Errorf("panic detail missing from body: %s", body)
	}
	if n := tr.Counter("serve.panics").Value(); n != 1 {
		t.Errorf("serve.panics = %d, want 1", n)
	}
	// The single worker survived and still serves.
	for i := 0; i < 3; i++ {
		if code, _, _ := post(t, srv.URL, `{"circuit":"csamp"}`); code != http.StatusOK {
			t.Fatalf("request %d after panic = %d, worker did not survive", i, code)
		}
	}
}

// TestDeadlineThreading: the request deadline reaches the flow
// context, and its expiry is a 504 with kind timeout.
func TestDeadlineThreading(t *testing.T) {
	sawDeadline := make(chan time.Duration, 1)
	s := newStubServer(t, Config{}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		if dl, ok := ctx.Deadline(); ok {
			sawDeadline <- time.Until(dl)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, _, body := post(t, srv.URL, `{"circuit":"csamp","timeout_ms":30}`)
	if code != http.StatusGatewayTimeout || errKind(t, body) != kindTimeout {
		t.Fatalf("timed-out request = %d %s", code, body)
	}
	select {
	case d := <-sawDeadline:
		if d > 40*time.Millisecond {
			t.Errorf("flow saw deadline %v away, want ~30ms", d)
		}
	default:
		t.Error("flow context had no deadline")
	}
}

// TestAdmissionShedding: with the worker busy and the queue full, the
// next request sheds with 429 and a Retry-After hint; once capacity
// frees, everything queued completes.
func TestAdmissionShedding(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	tr := obs.New()
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1, Trace: tr}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &flow.Result{Metrics: map[string]float64{"ok": 1}}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := post(t, srv.URL, `{"circuit":"csamp"}`)
			codes <- code
		}()
	}
	// First request on the worker, second parked in the queue.
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(s.queue) != 1 {
		t.Fatal("second request never queued")
	}

	code, hdr, body := post(t, srv.URL, `{"circuit":"csamp"}`)
	if code != http.StatusTooManyRequests || errKind(t, body) != kindShed {
		t.Fatalf("saturated request = %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if n := tr.Counter("serve.shed").Value(); n != 1 {
		t.Errorf("serve.shed = %d, want 1", n)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("queued request %d = %d, want 200", i, code)
		}
	}
}

// TestGracefulDrain: draining flips /readyz, refuses new admissions
// with 503 + Retry-After, lets the in-flight request finish normally,
// and Drain returns clean.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &flow.Result{Metrics: map[string]float64{"ok": 1}}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inflightCode := make(chan int, 1)
	go func() {
		code, _, _ := post(t, srv.URL, `{"circuit":"csamp"}`)
		inflightCode <- code
	}()
	<-started

	if code, body := getBody(t, srv.URL+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz before drain = %d %q", code, body)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if code, body := getBody(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("/readyz during drain = %d %q", code, body)
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, liveness must stay green", code)
	}
	code, hdr, body := post(t, srv.URL, `{"circuit":"csamp"}`)
	if code != http.StatusServiceUnavailable || errKind(t, body) != kindDraining {
		t.Errorf("admission during drain = %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}

	close(release)
	if err := <-drainErr; err != nil {
		t.Errorf("Drain = %v, want nil (in-flight finished in time)", err)
	}
	if code := <-inflightCode; code != http.StatusOK {
		t.Errorf("in-flight request during drain = %d, want 200", code)
	}
}

// TestDrainDeadlineCancelsInFlight: when the drain deadline expires,
// in-flight runs are canceled and still receive a terminal response
// (503 canceled), and Drain reports the forced cancellation.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		started <- struct{}{}
		<-ctx.Done() // a run that never finishes on its own
		return nil, ctx.Err()
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inflight := make(chan *struct {
		code int
		body string
	}, 1)
	go func() {
		code, _, body := post(t, srv.URL, `{"circuit":"csamp"}`)
		inflight <- &struct {
			code int
			body string
		}{code, body}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("Drain = nil, want the deadline error recording the forced cancel")
	}
	got := <-inflight
	if got.code != http.StatusServiceUnavailable || errKind(t, got.body) != kindCanceled {
		t.Errorf("force-canceled request = %d %s", got.code, got.body)
	}
}

// TestFlowErrorIsStructured500: a failing (non-panicking) flow run is
// kind internal, and the daemon keeps serving.
func TestFlowErrorIsStructured500(t *testing.T) {
	fail := true
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		if fail {
			fail = false
			return nil, fmt.Errorf("solver exploded")
		}
		return &flow.Result{Metrics: map[string]float64{"ok": 1}}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, _, body := post(t, srv.URL, `{"circuit":"csamp"}`)
	if code != http.StatusInternalServerError || errKind(t, body) != kindInternal {
		t.Fatalf("failing request = %d %s", code, body)
	}
	if !strings.Contains(body, "solver exploded") {
		t.Errorf("error detail missing: %s", body)
	}
	if code, _, _ := post(t, srv.URL, `{"circuit":"csamp"}`); code != http.StatusOK {
		t.Error("daemon unhealthy after a flow error")
	}
}

// TestEveryRequestSharesDaemonCache: each request runs on the circuit
// it names with its own flow.Request.Params, plus what the daemon adds:
// the one shared cache, the request's own trace and the daemon's fault
// injector.
func TestEveryRequestSharesDaemonCache(t *testing.T) {
	var mu sync.Mutex
	var got []flow.Params
	s := newStubServer(t, Config{}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		if bm.Name != "rovco" || len(bm.Insts) != 4 || mode != flow.Conventional {
			t.Errorf("flow ran on %s with %d stages in mode %v", bm.Name, len(bm.Insts), mode)
		}
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return &flow.Result{}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"circuit":"rovco","mode":"conventional","stages":4,"seed":9,"retry_attempts":5,"place_replicas":3,"spice_workers":2,"verify":true}`
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, _, out := post(t, srv.URL, body); code != http.StatusOK {
			t.Fatalf("request %d = %d %s", i, code, out)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Trace == got[1].Trace {
		t.Fatalf("want 2 runs with their own traces, got %d", len(got))
	}
	for i, p := range got {
		if p.Optimize.Cache != s.cache {
			t.Errorf("request %d does not share the daemon cache", i)
		}
		if p.Trace == nil || p.Fault != s.inj {
			t.Errorf("request %d: trace %p, fault %p; want its own trace and the daemon injector", i, p.Trace, p.Fault)
		}
		p.Optimize.Cache, p.Trace, p.Fault = nil, nil, nil
		if !reflect.DeepEqual(p, req.Params()) {
			t.Errorf("request %d params = %+v, want Request.Params() %+v", i, p, req.Params())
		}
	}
}

// TestRovcoStagesValidatedAtAdmission: an RO-VCO stage count that
// circuits.CheckStages rejects (odd, below 2 or above the bound) is a
// 400 before admission and never reaches the flow; zero (the default)
// and every valid count up to the bound still run.
func TestRovcoStagesValidatedAtAdmission(t *testing.T) {
	var ran []int
	var mu sync.Mutex
	s := newStubServer(t, Config{}, func(ctx context.Context, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error) {
		mu.Lock()
		ran = append(ran, len(bm.Insts))
		mu.Unlock()
		return &flow.Result{}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, n := range []int{1, 3, circuits.MaxStages + 1, circuits.MaxStages + 2} {
		code, _, body := post(t, srv.URL, fmt.Sprintf(`{"circuit":"rovco","stages":%d}`, n))
		if code != http.StatusBadRequest || errKind(t, body) != kindBadRequest {
			t.Errorf("stages %d: got %d %s, want 400 %s", n, code, body, kindBadRequest)
		}
	}
	valid := []int{0, 2, 8, circuits.MaxStages}
	for _, n := range valid {
		if code, _, body := post(t, srv.URL, fmt.Sprintf(`{"circuit":"rovco","stages":%d}`, n)); code != http.StatusOK {
			t.Errorf("stages %d: got %d %s, want 200", n, code, body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	built := []int{8, 2, 8, circuits.MaxStages} // 0 takes the default of 8
	if fmt.Sprint(ran) != fmt.Sprint(built) {
		t.Errorf("the flow ran with stages %v, want only %v", ran, built)
	}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, buf.String()
}
