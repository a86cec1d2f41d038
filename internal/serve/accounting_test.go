package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"primopt/internal/obs"
)

// accounting is what one request's trace dump reports about its run:
// every counter, and the attributes of its flow.run span except the
// timing-dependent alloc_bytes.
type accounting struct {
	counters map[string]int64
	run      map[string]any
}

// TestPerRequestAccounting is the per-request accounting contract: a
// request's trace dump holds exactly its own run's counters — the
// SPICE, primlib, cellgen and extract layers included — and flow.run
// attributes, whether it ran alone or beside another request on a
// shared cache, and the daemon trace folds in exactly those counters.
func TestPerRequestAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("real-flow test")
	}
	reqs := map[string]string{
		"csamp": `{"circuit":"csamp","seed":1,"trace":true}`,
		"ota5t": `{"circuit":"ota5t","seed":1,"trace":true}`,
	}
	alone := map[string]accounting{}
	for name, body := range reqs {
		got, _ := serveAll(t, 1, map[string]string{name: body})
		alone[name] = got[name]
	}
	together, daemon := serveAll(t, 2, reqs)

	var decks int64
	for name, acc := range together {
		if !reflect.DeepEqual(acc.counters, alone[name].counters) {
			t.Errorf("%s: counters beside another request differ from alone:\n%v\nvs\n%v", name, acc.counters, alone[name].counters)
		}
		if !reflect.DeepEqual(acc.run, alone[name].run) {
			t.Errorf("%s: flow.run attrs beside another request differ from alone:\n%v\nvs\n%v", name, acc.run, alone[name].run)
		}
		for _, c := range []string{"spice.decks", "primlib.sims", "extract.runs", "cellgen.layouts_generated"} {
			if acc.counters[c] <= 0 {
				t.Errorf("%s: dump counter %s = %d, want > 0", name, c, acc.counters[c])
			}
		}
		decks += acc.counters["spice.decks"]
	}
	if got := daemon.Counter("spice.decks").Value(); got != decks {
		t.Errorf("daemon trace spice.decks = %d, want the requests' sum %d", got, decks)
	}
}

// TestTraceRecordsRequestKnobs: a traced request's flow.run span
// records the knobs the run was given, so a dump says what ran.
func TestTraceRecordsRequestKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-flow test")
	}
	got, _ := serveAll(t, 1, map[string]string{
		"csamp": `{"circuit":"csamp","seed":1,"place_replicas":3,"spice_workers":2,"retry_attempts":4,"verify":true,"trace":true}`,
	})
	run := got["csamp"].run
	want := map[string]any{
		"circuit": "csamp", "mode": "optimized", "seed": 1.0,
		"place_replicas": 3.0, "spice_workers": 2.0, "retry_attempts": 4.0,
		"verify": "warn", "stage_timeout": "0s",
	}
	for k, v := range want {
		if run[k] != v {
			t.Errorf("flow.run %s = %v, want %v", k, run[k], v)
		}
	}
}

// serveAll posts every request at once to a fresh real daemon with the
// given worker count, and returns each request's accounting and the
// daemon trace.
func serveAll(t *testing.T, workers int, reqs map[string]string) (map[string]accounting, *obs.Trace) {
	t.Helper()
	tr := obs.New()
	s := newRealServer(t, Config{Workers: workers, Trace: tr})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var mu sync.Mutex
	var wg sync.WaitGroup
	out := map[string]accounting{}
	errs := map[string]error{}
	for name, body := range reqs {
		wg.Add(1)
		go func(name, body string) {
			defer wg.Done()
			acc, err := postAccounting(srv.URL, body)
			mu.Lock()
			defer mu.Unlock()
			out[name], errs[name] = acc, err
		}(name, body)
	}
	wg.Wait()
	for name, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out, tr
}

// postAccounting sends one traced request and reads its accounting.
func postAccounting(url, body string) (accounting, error) {
	var acc accounting
	resp, err := http.Post(url+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		return acc, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return acc, err
	}
	if resp.StatusCode != http.StatusOK {
		return acc, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var r Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return acc, err
	}
	if r.Trace == nil {
		return acc, fmt.Errorf("no trace section")
	}
	acc.counters = map[string]int64{}
	for _, m := range r.Trace.Metrics {
		if m.Kind == "counter" {
			acc.counters[m.Name] = int64(m.Value)
		}
	}
	for _, sp := range r.Trace.Spans {
		if sp.Name == "flow.run" {
			acc.run = sp.Attrs
			delete(acc.run, "alloc_bytes")
		}
	}
	if acc.run == nil {
		return acc, fmt.Errorf("no flow.run span")
	}
	return acc, nil
}
