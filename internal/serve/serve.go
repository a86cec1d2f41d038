// Package serve is the long-lived layout-generation daemon behind
// `primopt serve`: an HTTP service that accepts benchmark-circuit
// requests (POST /v1/generate), runs the full flow, and answers with
// layout metrics, the verification report, and the degradation
// status. The daemon is built to stay alive no matter what a request
// does:
//
//   - Admission control. Requests pass through a bounded queue into a
//     fixed worker pool. A full queue sheds with 429 and a jittered
//     Retry-After hint (the fault.Backoff stream, so hints grow under
//     sustained overload); a draining daemon refuses with 503.
//   - Panic isolation. A request that panics — an injected fault, a
//     solver bug — produces a structured 500 for that request and
//     nothing else; the worker recovers and keeps serving.
//   - Deadlines. Every request runs under its own deadline (clamped
//     to Config.MaxTimeout) threaded into flow.RunContext, so a
//     stuck solver costs one 504, not a wedged worker.
//   - Coalescing. All requests share one evcache.Cache (backed, with
//     Config.CacheDir, by its persistent disk tier), so identical
//     concurrent evaluations collapse into a single SPICE run via the
//     cache's single-flight path.
//   - Graceful drain. Drain stops admissions (429/503 + /readyz
//     flips to draining), lets in-flight requests finish under a
//     deadline, then cancels the stragglers; Close flushes the disk
//     tier. Every admitted request still gets a terminal response.
//
// The telemetry surface (/metrics, /spans, /healthz, /readyz,
// /debug/pprof) mounts alongside the request API on the same
// listener.
package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/fault"
	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// Config tunes the daemon. The zero value serves with the defaults
// noted per field.
type Config struct {
	// Workers is the size of the shared worker pool executing flow
	// runs (default 2). It bounds daemon-wide concurrency: every
	// request beyond it waits in the queue.
	Workers int
	// QueueDepth bounds the admission queue (default 2*Workers).
	// Requests arriving with the queue full are shed with 429.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request
	// names none (default 2m); MaxTimeout clamps what a request may
	// ask for (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheDir, when set, backs the shared evaluation cache with the
	// persistent disk tier rooted there — opened once at New, flushed
	// and closed at Close, shared by every request in between.
	CacheDir      string
	CacheMaxBytes int64
	// FaultSpec arms the daemon-wide deterministic fault injector
	// (same grammar as the -fault-spec flag); FaultSeed seeds its
	// probabilistic terms. Empty leaves injection off.
	FaultSpec string
	FaultSeed int64
	// Trace is the daemon-lifetime observability sink: serve.*
	// admission counters land here, every finished request's own
	// trace folds its counters in, and the telemetry surface reads
	// from it. Nil leaves the daemon untraced.
	Trace *obs.Trace
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 2
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 2 * c.workers()
}

// requestTimeout is a request's deadline: its timeout_ms, or
// DefaultTimeout when it names none, clamped to MaxTimeout.
func (c Config) requestTimeout(ms int64) time.Duration {
	d, limit := c.DefaultTimeout, c.MaxTimeout
	if d <= 0 {
		d = 2 * time.Minute
	}
	if limit <= 0 {
		limit = 10 * time.Minute
	}
	if ms > 0 {
		// Clamp before converting: the Duration product overflows to
		// a negative deadline above about 9.2e12 ms.
		d = limit
		if ms < limit.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return min(d, limit)
}

// outcome is the terminal result of one admitted request: the exact
// status and body the handler writes. Workers build outcomes; the
// admission handler only transports them.
type outcome struct {
	status  int
	body    []byte
	runtime time.Duration
}

// job is one admitted request traveling through the queue. done is
// buffered (size 1) so a worker can always deliver the terminal
// outcome and move on, even when the client has vanished.
type job struct {
	req       Request // checked
	mode      flow.Mode
	timeout   time.Duration
	clientCtx context.Context
	done      chan *outcome
}

// Server is the daemon. Create with New, mount Handler on an
// http.Server, and on shutdown call Drain then Close.
type Server struct {
	cfg  Config
	tech *pdk.Tech
	tr   *obs.Trace
	inj  *fault.Injector

	cache *evcache.Cache

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue    chan *job
	admitMu  sync.RWMutex // held (R) across the draining-check + enqueue window
	draining atomic.Bool
	inflight sync.WaitGroup // admitted jobs not yet answered
	workers  sync.WaitGroup

	reqSeq     atomic.Int64
	shedStreak atomic.Int64 // consecutive sheds, feeds the Retry-After ladder
	retryHint  fault.Backoff

	closeOnce sync.Once
	closeErr  error

	// runFlow is the flow entry point; tests substitute stubs to
	// exercise admission, isolation, and drain without SPICE.
	runFlow func(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, mode flow.Mode, p flow.Params) (*flow.Result, error)
}

// New builds a Server: arms the fault injector, opens the shared
// cache, and starts the worker pool.
func New(tech *pdk.Tech, cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg,
		tech:    tech,
		tr:      cfg.Trace,
		runFlow: flow.RunContext,
	}
	if cfg.FaultSpec != "" {
		inj, err := fault.New(cfg.FaultSeed, cfg.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("serve: fault spec: %w", err)
		}
		s.inj = inj
	}
	cache, err := evcache.Open(cfg.CacheDir, cfg.CacheMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir %s: %w", cfg.CacheDir, err)
	}
	s.cache = cache
	// The hint ladder starts near a short request's runtime and grows
	// toward Cap as sheds pile up — a saturated daemon pushes clients
	// further out instead of inviting a synchronized stampede.
	s.retryHint = fault.Backoff{Base: time.Second, Cap: 30 * time.Second, Attempts: 1 << 30, Seed: 1, Tag: "serve.retry_after"}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.queue = make(chan *job, cfg.queueDepth())
	for i := 0; i < cfg.workers(); i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// admit offers a job to the queue. The read lock pairs with Close's
// write lock so no enqueue can race the channel close; the draining
// check under the same lock pairs with Drain. Returns the rejection
// kind ("" on success).
func (s *Server) admit(j *job) string {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return kindDraining
	}
	select {
	case s.queue <- j:
		return ""
	default:
		return kindShed
	}
}

// retryAfterSeconds renders the jittered backoff hint for the current
// shed streak, in whole seconds (HTTP Retry-After format), minimum 1.
func (s *Server) retryAfterSeconds() string {
	streak := s.shedStreak.Load()
	if streak > 8 {
		streak = 8
	}
	if streak < 1 {
		streak = 1
	}
	d := s.retryHint.Delay(int(streak))
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// worker drains the queue until it closes. Each job is processed
// under a recover barrier, so a panicking request yields a structured
// 500 outcome and the worker lives on.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		out := s.process(j)
		j.done <- out
		s.inflight.Done()
	}
}

// process runs one admitted request end to end and always returns a
// terminal outcome: success, structured error, timeout, or the
// recovered remains of a panic.
func (s *Server) process(j *job) (out *outcome) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.tr.Counter("serve.panics").Inc()
			out = errorOutcome(kindPanic, fmt.Sprintf("request panicked: %v", r))
		}
		out.runtime = time.Since(start)
	}()

	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()
	// A vanished client cancels its own run (sheds the work) without
	// touching anyone else's; drain cancellation arrives via baseCtx.
	stop := context.AfterFunc(j.clientCtx, cancel)
	defer stop()

	return s.runRequest(ctx, j)
}

// Drain stops admitting (429/503, /readyz flips) and waits for every
// admitted request to receive its terminal outcome. If ctx expires
// first, in-flight flows are canceled and the wait resumes — flows
// honor their context, so this converges promptly. The returned error
// is ctx's, recording that the drain needed force.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Barrier: no admit call can still be between its draining check
	// and its enqueue once we hold the write lock.
	s.admitMu.Lock()
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close shuts the worker pool down and flushes the disk tier. Safe to
// call once after Drain (or alone — it force-drains first). The
// returned error is the disk tier's close error, if any.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.baseCancel()
		s.admitMu.Lock()
		close(s.queue)
		s.admitMu.Unlock()
		s.workers.Wait()
		s.inflight.Wait()
		s.closeErr = s.cache.Close()
	})
	return s.closeErr
}

// Draining reports whether the daemon has stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

// CacheStats exposes the shared evaluation cache's counters (tests
// and the drain log read them).
func (s *Server) CacheStats() evcache.Stats { return s.cache.Stats() }

// foldRequestMetrics accumulates a finished request's counters onto
// the daemon trace, so /metrics aggregates every layer's counters
// (spice.*, evcache.*, flow.retries, fault.injected, and friends)
// across the daemon's lifetime. Each request's run reports to its own
// trace, so the fold counts every piece of work exactly once. Spans
// are deliberately NOT folded — a long-lived daemon accumulating every
// request's span forest would never stop growing, and neither is the
// request trace's set of seen deck hashes, which dies with it.
func (s *Server) foldRequestMetrics(reqTr *obs.Trace) {
	_, metrics := reqTr.Snapshot()
	for _, m := range metrics {
		if m.Kind != "counter" {
			continue
		}
		//lint:allow spanhygiene folding a finished request's counters onto the daemon trace reuses the request's own (constant-at-origin) metric names
		s.tr.Counter(m.Name).Add(int64(m.Value))
	}
}
