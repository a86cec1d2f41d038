package evcache_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/pdk"
)

// TestEveryHitMatchesItsRecompute is the reference for the cache's
// correctness: a hit must be exactly what the requester would have
// computed. Every circuit's optimized and manual flows run on one
// shared cache, then its optimized flow once more, so hits come from
// other instances of the same run and from earlier runs, and the
// repeat hits the post-layout evaluation of each circuit; every hit,
// whether read from memory or waited out, is recomputed from the
// requesting caller's own inputs and compared with the served entry
// by digest. A key that leaves out anything the evaluation reads (a
// wire count, a route, a netlist parameter) serves another snapshot's
// entry, and the recompute tells them apart.
func TestEveryHitMatchesItsRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every circuit's optimizing flows and recomputes every hit")
	}
	check := evcache.CheckHits(t)
	tech := pdk.Default()
	shared := evcache.New()
	for _, name := range circuits.Names() {
		// The RO-VCO at four stages keeps the test short; its stages
		// still share one set of entries.
		bm, err := circuits.Build(tech, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []flow.Mode{flow.Optimized, flow.Manual, flow.Optimized} {
			p := flow.Params{Seed: 1}
			p.Optimize.Cache = shared
			if _, err := flow.RunContext(context.Background(), tech, bm, mode, p); err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
		}
	}
	hits := shared.Stats().Hits
	if hits == 0 {
		t.Fatal("no hits; nothing was checked")
	}
	if n := check.Checked(shared); n != hits {
		t.Errorf("recomputed %d hits of %d", n, hits)
	}
	keys := check.Keys(shared)
	for _, name := range circuits.Names() {
		marker := "|eval=" + name + "|"
		if !slices.ContainsFunc(keys, func(k string) bool { return strings.Contains(k, marker) }) {
			t.Errorf("%s: no evaluation entry was hit", name)
		}
	}
	for _, d := range check.Diffs() {
		t.Error(d)
	}
}
