package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/pdk"
	"primopt/internal/place"
)

// The per-mode cache stats line prints only when a cache exists AND
// was actually exercised: conventional runs (no cache) and runs whose
// cache never saw a request stay silent instead of reporting a
// misleading "0 hits / 0 misses".
func TestCacheStatsLineSuppression(t *testing.T) {
	// A cache that was created but never exercised (a schematic or
	// conventional run evaluates no primitive) is silent.
	idle := evcache.New()
	if line := cacheStatsLine(flow.Conventional, idle); line != "" {
		t.Errorf("idle cache produced a stats line: %q", line)
	}

	// One miss then one hit: the line appears with both counts.
	c := evcache.New()
	compute := func() (*evcache.Entry, error) {
		return &evcache.Entry{Cost: 1}, nil
	}
	for i := 0; i < 2; i++ {
		if _, err := c.DoCtx(context.Background(), "k", compute); err != nil {
			t.Fatal(err)
		}
	}
	line := cacheStatsLine(flow.Optimized, c)
	if !strings.Contains(line, "1 hits / 1 misses") {
		t.Errorf("exercised cache line = %q, want 1 hits / 1 misses", line)
	}
	if strings.Contains(line, "disk:") {
		t.Errorf("memory-only cache reported a disk tier: %q", line)
	}

	// With a disk tier attached the line grows the disk section.
	cd, err := evcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	if _, err := cd.DoCtx(context.Background(), "k", compute); err != nil {
		t.Fatal(err)
	}
	line = cacheStatsLine(flow.Optimized, cd)
	if !strings.Contains(line, "disk:") {
		t.Errorf("disk-tier cache line missing disk section: %q", line)
	}
}

// The run, verify and cache warm commands check every request with
// flow.Request.Check before any flow runs (the check's own cases are
// flow's TestRequestCheck). An optimized run opens its -cache-dir
// right before it starts, so a directory that was never created shows
// that no run started.

func TestRunCircuitReturnsCheckError(t *testing.T) {
	for _, req := range []flow.Request{
		{Circuit: "csamp", Mode: "optimized", PlaceReplicas: place.MaxReplicas + 1},
		{Circuit: "csamp", Mode: "optimized", Seed: -1},
		{Circuit: "csamp", Mode: "quantum"},
		{Circuit: "nand2", Mode: "all"},
	} {
		dir := filepath.Join(t.TempDir(), "cache")
		err := runCircuit(context.Background(), pdk.Default(), req, runOpts{cacheDir: dir})
		if err == nil {
			t.Errorf("%+v: runCircuit returned no error", req)
		}
		if _, serr := os.Stat(dir); serr == nil {
			t.Errorf("%+v: a run started before the check failed", req)
		}
	}
}

func TestVerifyRejectsBadRequestBeforeRunning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-circuit", "csamp", "-mode", "optimized", "-cache-dir", dir,
		"-place-replicas", strconv.Itoa(place.MaxReplicas + 1)}
	if code := runVerifyCmd(args); code != 2 {
		t.Errorf("primopt verify %v exited %d, want 2", args, code)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("a verification run started before the check failed")
	}
}

func TestCacheWarmRejectsBadRequestBeforeRunning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-cache-dir", dir, "-circuit", "csamp", "-seed", "-1"}
	if code := runCacheWarm(args); code != 2 {
		t.Errorf("primopt cache warm %v exited %d, want 2", args, code)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("a warm run started before the check failed")
	}
}
