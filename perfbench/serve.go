package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"primopt/internal/obs"
	"primopt/internal/serve"
)

// serveWarm drives an in-process daemon, configured the way `primopt
// serve` configures it, over a loopback listener with two clients.
type serveWarm struct {
	b      *bench
	cycle  []input // timed-phase order
	canon  []input // set-up pass order, fixed so set-up time does not depend on the seed
	client *http.Client

	d    *daemon // the running daemon
	dir  string  // its cache directory
	refs refTable

	mu       sync.Mutex
	bodies   map[string][]byte // input key -> set-up body
	diskOpen []time.Duration   // serve.New on the warm directory, per set-up
	diskPass []time.Duration
	diskMiss int64

	// Daemon overhead, latency − X-Primopt-Runtime-Ms, summed over the
	// current phase; refOverhead is the untraced phase's mean.
	overheadMS  atomic.Int64
	overheadN   atomic.Int64
	refOverhead float64
}

// daemon is one serve.Server behind its own loopback HTTP server.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	sink *obs.Trace
	url  string
	done chan struct{}
}

func newServeWarm(b *bench) *serveWarm {
	rng := rand.New(rand.NewSource(b.seed))
	seeds := placementSeeds(rng, smallSeeds)
	w := &serveWarm{
		b:     b,
		cycle: inputCycle(rng, smallCircuits, seeds),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		bodies: map[string][]byte{},
	}
	for _, c := range smallCircuits {
		for _, s := range seeds {
			w.canon = append(w.canon, input{c, s})
		}
	}
	return w
}

func (w *serveWarm) clients() int { return 2 }

// start launches a daemon on dir with a fresh process sink, as `primopt
// serve` does at start-up, and returns it with serve.New's wall time.
func (w *serveWarm) start(dir string) (*daemon, time.Duration, error) {
	sink := obs.New()
	obs.SetDefault(sink)
	t0 := time.Now()
	srv, err := serve.New(w.b.tech, serve.Config{Workers: 2, CacheDir: dir, Trace: sink})
	open := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, sink: sink,
		url: "http://" + ln.Addr().String() + "/v1/generate", done: make(chan struct{})}
	go func() {
		defer close(d.done)
		if err := d.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(w.b.log, "perfbench: daemon listener:", err)
		}
	}()
	return d, open, nil
}

// stop drains and closes a daemon, flushing its disk tier.
func (w *serveWarm) stop(d *daemon) error {
	if d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-d.done
	w.client.CloseIdleConnections()
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	obs.SetDefault(nil)
	return err
}

// setup: a cold pass (compute plus disk write-through) on a fresh
// cache directory, Close, a new daemon on the same directory, and a
// pass served from disk. The timed phases then hit memory.
func (w *serveWarm) setup(ctx context.Context, parent *obs.Span) error {
	if err := w.teardown(); err != nil {
		return err
	}
	w.refs.compute(ctx, w.b, parent, smallCircuits)
	dir, err := os.MkdirTemp(w.b.dir, "cache-")
	if err != nil {
		return err
	}
	w.dir = dir
	sp := parent.Start("bench.cold_pass")
	w.d, _, err = w.start(dir)
	if err == nil {
		w.setupPass(ctx, sp, false)
		err = w.stop(w.d)
	}
	w.d = nil
	sp.End()
	if err != nil {
		return err
	}

	sp = parent.Start("bench.restart")
	d, open, err := w.start(dir)
	sp.End()
	if err != nil {
		return err
	}
	w.d = d
	sp = parent.Start("bench.disk_pass")
	t0 := time.Now()
	w.setupPass(ctx, sp, true)
	pass := time.Since(t0)
	sp.End()
	st := d.srv.CacheStats()
	w.mu.Lock()
	w.diskOpen = append(w.diskOpen, open)
	w.diskPass = append(w.diskPass, pass)
	w.diskMiss += st.DiskMisses
	w.mu.Unlock()
	if st.DiskMisses != 0 {
		w.b.failf("restart pass: %d disk misses, want 0", st.DiskMisses)
	}
	return nil
}

// setupPass sends every request once, in canonical order. The first
// cold pass of the run checks and keeps each body; every later pass
// must return the same bytes.
func (w *serveWarm) setupPass(ctx context.Context, sp *obs.Span, fromDisk bool) {
	w.b.pass(ctx, sp, 2, len(w.canon), func(ctx context.Context, o *op) error {
		in := w.canon[o.i]
		o.input = in.key()
		body, _, err := w.post(ctx, o, in)
		if err != nil {
			return err
		}
		w.mu.Lock()
		want, ok := w.bodies[in.key()]
		w.mu.Unlock()
		if ok {
			return sameBody(want, body, false)
		}
		if fromDisk {
			return fmt.Errorf("no cold-pass body for %s", in.key())
		}
		if err := w.checkResponse(in, body); err != nil {
			return err
		}
		w.mu.Lock()
		w.bodies[in.key()] = body
		w.mu.Unlock()
		return nil
	})
}

// checkResponse checks a set-up body: clean verification, no
// degradation, complete and finite metrics; and notes its quality gap.
func (w *serveWarm) checkResponse(in input, body []byte) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Degraded) > 0 {
		return fmt.Errorf("degraded: %v", resp.Degraded)
	}
	if resp.Verify == nil || !resp.Verify.Clean() {
		return fmt.Errorf("layout verification missing or not clean")
	}
	gap, err := w.refs.gap(in.circuit, resp.Metrics)
	if err != nil {
		return err
	}
	w.b.noteGap(in.key(), gap)
	return nil
}

// post sends one /v1/generate request as the op's entry call and
// returns the body and the daemon's X-Primopt-Runtime-Ms.
func (w *serveWarm) post(ctx context.Context, o *op, in input) ([]byte, int64, error) {
	req, err := json.Marshal(serve.Request{Circuit: in.circuit, Seed: in.seed, Verify: true, Trace: o.traced})
	if err != nil {
		return nil, 0, err
	}
	var (
		body   []byte
		status int
		runMS  int64
	)
	o.timed(func() {
		var hreq *http.Request
		hreq, err = http.NewRequestWithContext(ctx, http.MethodPost, w.d.url, bytes.NewReader(req))
		if err != nil {
			return
		}
		var resp *http.Response
		resp, err = w.client.Do(hreq)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		if err == nil {
			runMS, err = strconv.ParseInt(resp.Header.Get("X-Primopt-Runtime-Ms"), 10, 64)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return body, runMS, nil
}

// op sends one timed request and requires the set-up pass's body. A
// traced request's body carries a trace section after the same bytes.
func (w *serveWarm) op(ctx context.Context, o *op) error {
	in := w.cycle[o.i%len(w.cycle)]
	o.input = in.key()
	body, runMS, err := w.post(ctx, o, in)
	if err != nil {
		return err
	}
	w.mu.Lock()
	want := w.bodies[in.key()]
	w.mu.Unlock()
	if err := sameBody(want, body, o.traced); err != nil {
		return err
	}
	if !o.traced {
		w.overheadMS.Add(o.lat.Milliseconds() - runMS)
		w.overheadN.Add(1)
		return nil
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding traced response: %w", err)
	}
	if resp.Trace == nil || len(resp.Trace.Spans) == 0 {
		return errors.New("traced response carries no spans")
	}
	// The request trace's clock starts inside the daemon; place its
	// last span's end at the moment the client had the response.
	var end int64
	for _, s := range resp.Trace.Spans {
		if e := s.StartUS + s.DurUS; e > end {
			end = e
		}
	}
	o.sub = resp.Trace.Spans
	o.base = o.start.Add(o.lat - time.Duration(end)*time.Microsecond)
	return nil
}

// sameBody requires a response body to equal the set-up pass's. A
// traced body may differ only by the trace section the API appends as
// its last field.
func sameBody(want, got []byte, traced bool) error {
	if len(want) < 2 {
		return errors.New("no set-up body for this request")
	}
	if !traced {
		if !bytes.Equal(want, got) {
			return fmt.Errorf("body differs from the set-up pass's (%d vs %d bytes)", len(got), len(want))
		}
		return nil
	}
	// want ends in "}\n"; a traced body continues with ,"trace":{...}}.
	head := want[:len(want)-2]
	if !bytes.HasPrefix(got, head) || !bytes.HasPrefix(got[len(head):], []byte(`,"trace":`)) {
		return errors.New("traced body differs from the set-up pass's outside its trace section")
	}
	return nil
}

// beginPhase returns the daemon's sink: its counters include every
// request's, folded in as each request finishes.
func (w *serveWarm) beginPhase(traced bool) *obs.Trace {
	w.overheadMS.Store(0)
	w.overheadN.Store(0)
	return w.d.sink
}

// endPhase requires that the phase solved no SPICE deck: every
// evaluation is served from the warm cache.
func (w *serveWarm) endPhase(ph *phase) {
	if n := ph.counters["spice.decks"]; n != 0 {
		w.b.failf("timed phase solved %d SPICE decks, want 0", n)
	}
	if !ph.traced && w.overheadN.Load() > 0 {
		w.refOverhead = float64(w.overheadMS.Load()) / float64(w.overheadN.Load())
	}
}

// layers adds the disk tier's set-up timings and the daemon overhead
// of the untraced phase.
func (w *serveWarm) layers(_ context.Context, m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m["evcache.disk_open_ms"] = ms(median(durs(w.diskOpen)))
	m["evcache.disk_pass_ms"] = ms(median(durs(w.diskPass)))
	m["evcache.disk_misses"] = float64(w.diskMiss)
	m["serve.overhead_ms"] = w.refOverhead
}

func (w *serveWarm) teardown() error {
	err := w.stop(w.d)
	w.d = nil
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
		w.dir = ""
	}
	return err
}

func (w *serveWarm) close() error { return w.teardown() }
