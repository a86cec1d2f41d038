package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/serve"
)

// runServeCmd implements `primopt serve`: the long-lived layout
// generation daemon. It mounts the request API (POST /v1/generate,
// GET /v1/circuits) and the telemetry surface (/metrics, /spans,
// /healthz, /readyz, /debug/pprof) on one listener and serves until
// SIGINT/SIGTERM, then drains gracefully: admissions stop (/readyz
// flips to 503), in-flight requests finish under -drain-timeout (or
// are canceled when it expires), the disk cache tier flushes, and the
// process exits 0. Exit status: 0 clean shutdown, 1 serve error, 2
// usage error.
func runServeCmd(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9190", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 2, "worker pool size (concurrent flow runs)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue bound (0 = 2*workers); beyond it requests shed with 429")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 10*time.Minute, "hard cap on the per-request deadline a request may ask for")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests before canceling them")
	cacheDir := fs.String("cache-dir", "", "persistent evaluation cache directory (disk tier, shared by every request)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "disk-tier size bound in bytes (0 = default 1 GiB)")
	faultSpec := fs.String("fault-spec", "", "arm daemon-wide deterministic fault injection (same grammar as the run flag)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for probabilistic (~P) fault terms")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: primopt serve [-addr host:port] [-workers n] [-cache-dir dir] ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The daemon trace: serve.* admission metrics land there, every
	// finished request's counters fold into it, and /metrics reads
	// from it.
	tr := obs.New()
	tr.SetMeta(buildMeta())

	tech := pdk.Default()
	if err := tech.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "primopt serve:", err)
		return 2
	}
	s, err := serve.New(tech, serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheMax,
		FaultSpec:      *faultSpec,
		FaultSeed:      *faultSeed,
		Trace:          tr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt serve:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt serve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
		close(serveErr)
	}()
	fmt.Fprintf(os.Stderr, "primopt serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err, ok := <-serveErr:
		if ok && err != nil {
			fmt.Fprintln(os.Stderr, "primopt serve:", err)
			return 1
		}
	}
	stop() // a second signal kills immediately instead of re-draining

	fmt.Fprintln(os.Stderr, "primopt serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "primopt serve: drain deadline hit, canceled in-flight requests")
	}
	cancel()
	// In-flight handlers have their outcomes; give slow readers a
	// short grace to collect the bytes, then close the listener.
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(shCtx); err != nil {
		fmt.Fprintln(os.Stderr, "primopt serve: http shutdown:", err)
	}
	shCancel()
	status := 0
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "primopt serve: cache close:", err)
		status = 1
	}
	st := s.CacheStats()
	fmt.Fprintf(os.Stderr, "primopt serve: drained (cache: %d hits / %d misses", st.Hits, st.Misses)
	if st.DiskTier {
		fmt.Fprintf(os.Stderr, "; disk: %d hits, %d entries", st.DiskHits, st.DiskEntries)
	}
	fmt.Fprintln(os.Stderr, ")")
	return status
}
