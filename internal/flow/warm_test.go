package flow

import (
	"context"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/obs"
)

// TestWarmDiskRunSolvesZeroDecks is the committed trace assertion
// behind the persistent-cache success metric: a second run of a
// benchmark against a warm cache directory completes with ZERO SPICE
// decks solved — every primitive evaluation (optimizer sweeps, port
// optimization, reference metrics) is served from the disk tier —
// and produces the byte-identical layout. Each run gets a fresh
// in-memory cache and a fresh trace, so this is exactly the
// two-process scenario the disk tier exists for, minus the exec.
func TestWarmDiskRunSolvesZeroDecks(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	run := func(label string) (*Result, *obs.Trace) {
		tr := obs.New()
		p := fastParams()
		p.Trace = tr
		c, err := evcache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Optimize.Cache = c
		res, err := RunContext(context.Background(), tech, bm, Optimized, p)
		if err != nil {
			t.Fatalf("%s run: %v", label, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s close: %v", label, err)
		}
		return res, tr
	}

	cold, coldTr := run("cold")
	if v := coldTr.Counter("spice.decks").Value(); v == 0 {
		t.Fatal("cold run solved no decks — the assertion below would be vacuous")
	}
	if v := coldTr.Counter("evcache.disk_misses").Value(); v == 0 {
		t.Error("cold run never consulted the disk tier")
	}

	warm, warmTr := run("warm")
	if v := warmTr.Counter("spice.decks").Value(); v != 0 {
		t.Errorf("warm run solved %d SPICE decks, want 0", v)
	}
	if v := warmTr.Counter("evcache.disk_hits").Value(); v == 0 {
		t.Error("warm run recorded no disk hits")
	}
	if fingerprint(cold) != fingerprint(warm) {
		t.Error("warm result differs from cold result — the disk tier changed the layout")
	}
}
