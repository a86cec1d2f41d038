package flow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/obs"
)

// pinnedPath holds the pinned runs TestPinnedRuns compares against.
const pinnedPath = "testdata/pinned_runs.json"

// pinnedRun is what one (circuit, mode) run costs and produces.
// Counters hold every non-zero counter of the run's own trace; a
// counter at zero reads the same as one never created, so it is left
// out. CountersNoCache is the same run without the evaluation cache
// (optimized and manual only).
type pinnedRun struct {
	Sims            int                `json:"sims"`
	Metrics         map[string]float64 `json:"metrics"`
	Layout          string             `json:"layout"`
	Counters        map[string]int64   `json:"counters"`
	CountersNoCache map[string]int64   `json:"counters_nocache,omitempty"`
}

// TestPinnedRuns pins the work and the results of every benchmark
// circuit in every mode at seed 1, run as `primopt -circuit X -mode M`
// runs it (the RO-VCO at 8 stages, a fresh cache for the optimizing
// modes, no disk tier, verification off). Each run pins Result.Sims,
// the bits of Result.Metrics, a hash of the layout fingerprint and its
// trace's counters. The optimizing modes also run without the cache:
// that run must reproduce the cached run's sims, metrics and layout,
// and its counters are pinned as well.
//
// The comparison is exact. A change that moves work or results on
// purpose re-pins: the failure writes the regenerated file to a
// temporary path and names it, to be copied over pinnedPath with a
// note saying why the numbers moved.
func TestPinnedRuns(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pins are amd64 result bits; on %s the compiler may fuse multiply-adds, which moves them", runtime.GOARCH)
	}
	got := map[string]*pinnedRun{}
	for _, name := range circuits.Names() {
		bm, err := circuits.Build(tech, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Schematic, Conventional, Optimized, Manual} {
			key := name + "/" + mode.String()
			optimizing := mode == Optimized || mode == Manual
			run := pinRun(t, bm, mode, optimizing)
			if optimizing {
				// The cache's contract: the run without it, diffed
				// against the cached run as the pinned side, differs
				// in its counters only.
				bare := pinRun(t, bm, mode, false)
				results := func(r *pinnedRun) *pinnedRun {
					return &pinnedRun{Sims: r.Sims, Metrics: r.Metrics, Layout: r.Layout}
				}
				for _, d := range diffRun(key+" without cache", results(run), results(bare)) {
					t.Error(d)
				}
				run.CountersNoCache = bare.Counters
			}
			got[key] = run
		}
	}

	data, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]*pinnedRun
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("%s: %v", pinnedPath, err)
	}
	var diffs []string
	for _, key := range keysOf(pinned, got) {
		switch p, g := pinned[key], got[key]; {
		case p == nil:
			diffs = append(diffs, key+": run, not pinned")
		case g == nil:
			diffs = append(diffs, key+": pinned, not run")
		default:
			diffs = append(diffs, diffRun(key, p, g)...)
		}
	}
	if len(diffs) == 0 {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp("", "pinned_runs-*.json")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(append(out, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("%d differences from %s:\n%s\nregenerated file: %s",
		len(diffs), pinnedPath, strings.Join(diffs, "\n"), f.Name())
}

// pinRun runs bm in mode at seed 1, with a fresh evaluation cache when
// cached, and records what TestPinnedRuns pins.
func pinRun(t *testing.T, bm *circuits.Benchmark, mode Mode, cached bool) *pinnedRun {
	t.Helper()
	p := Params{Seed: 1, Trace: obs.New()}
	if cached {
		p.Optimize.Cache = evcache.New()
	}
	r, err := RunContext(context.Background(), tech, bm, mode, p)
	if err != nil {
		t.Fatalf("%s %v: %v", bm.Name, mode, err)
	}
	sum := sha256.Sum256([]byte(fingerprint(r)))
	run := &pinnedRun{Sims: r.Sims, Metrics: r.Metrics, Layout: hex.EncodeToString(sum[:]), Counters: map[string]int64{}}
	_, metrics := p.Trace.Snapshot()
	for _, m := range metrics {
		if m.Kind == "counter" && m.Value != 0 {
			run.Counters[m.Name] = int64(m.Value)
		}
	}
	return run
}

// diffRun lists every field in which got differs from pinned, one
// "run field: pinned X, got Y" line each. Metrics compare by bits.
func diffRun(key string, pinned, got *pinnedRun) []string {
	var out []string
	add := func(field string, p, g any) {
		out = append(out, fmt.Sprintf("%s %s: pinned %v, got %v", key, field, p, g))
	}
	if pinned.Sims != got.Sims {
		add("sims", pinned.Sims, got.Sims)
	}
	for _, m := range keysOf(pinned.Metrics, got.Metrics) {
		p, pok := pinned.Metrics[m]
		g, gok := got.Metrics[m]
		if pok != gok || math.Float64bits(p) != math.Float64bits(g) {
			add("metrics["+m+"]", orNone(p, pok), orNone(g, gok))
		}
	}
	if pinned.Layout != got.Layout {
		add("layout", pinned.Layout, got.Layout)
	}
	for _, f := range []struct {
		name        string
		pinned, got map[string]int64
	}{
		{"counters", pinned.Counters, got.Counters},
		{"counters_nocache", pinned.CountersNoCache, got.CountersNoCache},
	} {
		for _, c := range keysOf(f.pinned, f.got) {
			p, pok := f.pinned[c]
			g, gok := f.got[c]
			if pok != gok || p != g {
				add(f.name+"["+c+"]", orNone(p, pok), orNone(g, gok))
			}
		}
	}
	return out
}

func orNone[V any](v V, ok bool) any {
	if !ok {
		return "none"
	}
	return v
}

// keysOf returns the union of the maps' keys, sorted.
func keysOf[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
