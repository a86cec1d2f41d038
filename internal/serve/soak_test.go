package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"primopt/internal/fault"
	"primopt/internal/obs"
)

// soakSpec arms seven fault sites spanning every layer a request
// crosses: SPICE solves (error, panic, delay), per-net routing,
// cache-miss computation, disk-tier reads, and extraction. The
// spice.tran panic is the one that escapes the flow's own recovery
// (the eval-stage testbenches run outside the per-instance ladder),
// so it lands squarely on the daemon's recover barrier.
var soakSpec = strings.Join([]string{
	fault.SiteSpiceOP + ":error~0.03",
	fault.SiteSpiceTran + ":panic~0.02",
	fault.SiteSpiceDC + ":delay=1ms~0.05",
	fault.SiteRouteNet + ":error~0.1",
	fault.SiteEvcacheCompute + ":error~0.03",
	fault.SiteEvcacheDisk + ":error~0.2",
	fault.SiteExtract + ":panic~0.05",
}, ",")

// terminalStatuses is every status the daemon may legitimately answer
// with under chaos. Anything else — or no answer at all — is a bug.
var terminalStatuses = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusMethodNotAllowed:    true,
	http.StatusTooManyRequests:     true,
	http.StatusInternalServerError: true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// TestChaosSoak is the daemon's survival proof: concurrent clients
// fire a mix of valid, malformed, abusive, and abandoning requests at
// a fault-armed daemon (errors, panics, and delays injected at seven
// sites) while a prober hammers /healthz. The daemon must never die:
// every request gets exactly one terminal response, liveness stays
// green throughout, the pool still serves cleanly after the storm,
// the drain is orderly, and the disk cache the storm populated
// replays a fresh daemon's request without solving a single SPICE
// deck.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := t.TempDir()
	s := newRealServer(t, Config{
		Workers:    3,
		QueueDepth: 4,
		CacheDir:   dir,
		FaultSpec:  soakSpec,
		FaultSeed:  7,
		Trace:      obs.New(),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Liveness prober: /healthz must answer 200 for the storm's whole
	// duration, fault storm or not.
	probeStop := make(chan struct{})
	var probeFails, probes atomic.Int64
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/healthz")
			probes.Add(1)
			if err != nil || resp.StatusCode != http.StatusOK {
				probeFails.Add(1)
			}
			if err == nil {
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const clients = 6
	const perClient = 8
	client := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	var terminal, hung atomic.Int64
	errCh := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var resp *http.Response
				var err error
				switch (c*perClient + i) % 6 {
				case 0, 1: // valid optimized runs, identical → coalesce
					resp, err = client.Post(srv.URL+"/v1/generate", "application/json",
						strings.NewReader(`{"circuit":"csamp","seed":1}`))
				case 2: // valid, different seed
					resp, err = client.Post(srv.URL+"/v1/generate", "application/json",
						strings.NewReader(fmt.Sprintf(`{"circuit":"csamp","seed":%d}`, 2+i%2)))
				case 3: // malformed body
					resp, err = client.Post(srv.URL+"/v1/generate", "application/json",
						strings.NewReader(`{"circuit":`))
				case 4: // starvation deadline → 504
					resp, err = client.Post(srv.URL+"/v1/generate", "application/json",
						strings.NewReader(`{"circuit":"csamp","timeout_ms":1}`))
				case 5: // abandoning client: gives up mid-flight
					ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
					var hr *http.Request
					hr, err = http.NewRequestWithContext(ctx, http.MethodPost,
						srv.URL+"/v1/generate", strings.NewReader(`{"circuit":"csamp","seed":1}`))
					if err == nil {
						resp, err = client.Do(hr)
					}
					if err != nil {
						// The abandonment is the scenario, not a failure.
						cancel()
						terminal.Add(1)
						continue
					}
					cancel()
				}
				if err != nil {
					hung.Add(1)
					errCh <- fmt.Sprintf("client %d req %d: no terminal response: %v", c, i, err)
					continue
				}
				if !terminalStatuses[resp.StatusCode] {
					errCh <- fmt.Sprintf("client %d req %d: unexpected status %d", c, i, resp.StatusCode)
				}
				resp.Body.Close()
				terminal.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(probeStop)
	probeWG.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
	if hung.Load() != 0 {
		t.Fatalf("%d requests never received a terminal response", hung.Load())
	}
	if probes.Load() == 0 {
		t.Fatal("liveness prober never ran")
	}
	if probeFails.Load() != 0 {
		t.Errorf("/healthz failed %d of %d probes during the storm", probeFails.Load(), probes.Load())
	}

	// Zero daemon deaths: all three workers still serve, in sequence,
	// after every fault the storm threw.
	for i := 0; i < 3; i++ {
		code, _, body := post(t, srv.URL, `{"circuit":"csamp","seed":1}`)
		if code != http.StatusOK && code != http.StatusInternalServerError && code != http.StatusServiceUnavailable {
			t.Fatalf("post-storm request %d = %d %s", i, code, body)
		}
	}

	// Orderly drain: readyz flips, in-flight zero, Close flushes disk.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Errorf("Drain = %v, want clean", err)
	}
	if code, body := getBody(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("/readyz after drain = %d %q", code, body)
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after drain lost liveness")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Backfill pass: a clean (fault-free) daemon against the same
	// cache dir completes the entry set the storm's failed computes
	// left behind — errors are never cached, so a chaos run alone
	// cannot guarantee a complete tier.
	fill := newRealServer(t, Config{Workers: 1, CacheDir: dir, Trace: obs.New()})
	fillSrv := httptest.NewServer(fill.Handler())
	code, _, body := post(t, fillSrv.URL, `{"circuit":"csamp","seed":1}`)
	fillSrv.Close()
	if code != http.StatusOK {
		t.Fatalf("backfill request = %d %s", code, body)
	}
	if err := fill.Close(); err != nil {
		t.Fatalf("backfill close: %v", err)
	}

	// Warm replay: a brand-new daemon (cold memory, same disk tier)
	// must answer the identical request from the tier alone — zero
	// SPICE decks solved, disk hits recorded, same response body.
	warmTr := obs.New()
	warm := newRealServer(t, Config{Workers: 1, CacheDir: dir, Trace: warmTr})
	warmSrv := httptest.NewServer(warm.Handler())
	defer warmSrv.Close()
	wcode, _, wbody := post(t, warmSrv.URL, `{"circuit":"csamp","seed":1}`)
	if wcode != http.StatusOK {
		t.Fatalf("warm request = %d %s", wcode, wbody)
	}
	if wbody != body {
		t.Error("warm response differs from the backfill response — the disk tier changed the result")
	}
	if decks := warmTr.Counter("spice.decks").Value(); decks != 0 {
		t.Errorf("warm request solved %d SPICE decks, want 0 (tier should replay everything)", decks)
	}
	if st := warm.CacheStats(); st.DiskHits == 0 {
		t.Error("warm request recorded no disk hits")
	}
}
