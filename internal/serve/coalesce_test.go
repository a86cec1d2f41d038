package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"primopt/internal/obs"
)

// newRealServer builds a Server running the real flow.
func newRealServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(tech, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestCoalescingIdenticalConcurrentRequests is the request-coalescing
// contract: N identical submissions racing through the daemon share
// one SPICE evaluation per distinct primitive snapshot — the shared
// cache's single-flight path collapses the duplicates — and every
// client reads a byte-identical response body. The baseline server
// runs the same request once; equal miss counts mean the concurrent
// storm computed nothing the single run didn't.
func TestCoalescingIdenticalConcurrentRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("real-flow test")
	}
	const n = 4
	req := `{"circuit":"csamp","mode":"optimized","seed":1}`

	base := newRealServer(t, Config{Workers: 1, Trace: obs.New()})
	baseSrv := httptest.NewServer(base.Handler())
	defer baseSrv.Close()
	code, _, refBody := post(t, baseSrv.URL, req)
	if code != http.StatusOK {
		t.Fatalf("baseline request = %d %s", code, refBody)
	}
	baseStats := base.CacheStats()
	if baseStats.Misses == 0 {
		t.Fatal("baseline run never consulted the cache — the assertions below would be vacuous")
	}

	s := newRealServer(t, Config{Workers: n, QueueDepth: n, Trace: obs.New()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	bodies := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = post(t, srv.URL, req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, codes[i], bodies[i])
		}
		if bodies[i] != refBody {
			t.Errorf("request %d body differs from the baseline:\n%s\nvs\n%s", i, bodies[i], refBody)
		}
	}

	st := s.CacheStats()
	if st.Misses != baseStats.Misses {
		t.Errorf("%d concurrent identical requests computed %d distinct evaluations, a single run computes %d — duplicates were not coalesced",
			n, st.Misses, baseStats.Misses)
	}
	if st.Hits <= baseStats.Hits {
		t.Errorf("concurrent hits %d not above single-run hits %d — waiters never shared results", st.Hits, baseStats.Hits)
	}
}

// TestCoalescingWaiterCancelMidFlight: one of two identical racing
// requests is abandoned by its client mid-flight. The cancellation
// must not poison the shared single-flight slot — the surviving
// request completes with the correct result, and so does a fresh
// request afterward.
func TestCoalescingWaiterCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("real-flow test")
	}
	req := `{"circuit":"csamp","mode":"optimized","seed":1}`
	s := newRealServer(t, Config{Workers: 2, QueueDepth: 4, Trace: obs.New()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	survivor := make(chan string, 1)
	go func() {
		code, _, body := post(t, srv.URL, req)
		if code != http.StatusOK {
			survivor <- ""
			return
		}
		survivor <- body
	}()

	// The doomed twin: same request, client gives up almost
	// immediately — mid-flight for any real csamp run (~tens of ms).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/generate", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		// Lost the race with a very fast run — still a terminal
		// response, which is fine; the point is what happens next.
		resp.Body.Close()
	}

	got := <-survivor
	if got == "" {
		t.Fatal("surviving twin failed")
	}
	code, _, fresh := post(t, srv.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-cancel request = %d %s", code, fresh)
	}
	if fresh != got {
		t.Errorf("post-cancel body differs from the survivor's — the canceled waiter corrupted shared state:\n%s\nvs\n%s", fresh, got)
	}
}
