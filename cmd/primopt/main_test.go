package main

import (
	"context"
	"strings"
	"testing"

	"primopt/internal/evcache"
	"primopt/internal/flow"
)

// The per-mode cache stats line prints only when a cache exists AND
// was actually exercised: conventional runs (no cache) and runs whose
// cache never saw a request stay silent instead of reporting a
// misleading "0 hits / 0 misses".
func TestCacheStatsLineSuppression(t *testing.T) {
	if line := cacheStatsLine(flow.Conventional, nil); line != "" {
		t.Errorf("nil cache produced a stats line: %q", line)
	}

	// A cache that was created but never exercised (e.g. the mode's
	// flow took a path with no primitive evaluations) is also silent.
	idle := evcache.New()
	if line := cacheStatsLine(flow.Optimized, idle); line != "" {
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
	d, err := evcache.OpenDisk(t.TempDir(), evcache.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cd := evcache.New()
	cd.AttachDisk(d)
	if _, err := cd.DoCtx(context.Background(), "k", compute); err != nil {
		t.Fatal(err)
	}
	line = cacheStatsLine(flow.Optimized, cd)
	if !strings.Contains(line, "disk:") {
		t.Errorf("disk-tier cache line missing disk section: %q", line)
	}
}
