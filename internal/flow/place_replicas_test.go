package flow

import (
	"context"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/obs"
)

// TestPlacementReplicaWorkerInvariance is the flow-level determinism
// contract for the multi-replica placer: for a fixed seed, the whole
// optimized flow — placement geometry, routes, reconciled wires,
// post-layout metrics — must be byte-identical whether the worker
// pool runs one replica at a time or all of them, and across
// repeated runs.
func TestPlacementReplicaWorkerInvariance(t *testing.T) {
	bm, err := circuits.OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		p := fastParams()
		p.PlaceReplicas = 3
		p.Optimize.Workers = workers
		r, err := RunContext(context.Background(), tech, bm, Optimized, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fingerprint(r)
	}
	ref := run(1)
	for _, workers := range []int{8, 1} {
		if got := run(workers); got != ref {
			t.Errorf("workers=%d changed the flow output:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, ref, workers, got)
		}
	}
}

// TestPlacementReplicaSpans asserts the observability side of the
// replica engine inside the flow: the place.anneal span carries the
// reduction attrs and nests one place.replica span per configured
// replica, each reporting its best cost.
func TestPlacementReplicaSpans(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	p := fastParams()
	p.Trace = tr
	p.PlaceReplicas = 3
	if _, err := RunContext(context.Background(), tech, bm, Optimized, p); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := obs.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	sp := d.Span("place.anneal")
	if sp == nil {
		t.Fatal("no place.anneal span")
	}
	if v, ok := sp.Attrs["replicas"].(float64); !ok || v != 3 {
		t.Errorf("place.anneal replicas attr = %v, want 3", sp.Attrs["replicas"])
	}
	for _, key := range []string{"best_replica", "best_cost", "bands"} {
		if _, ok := sp.Attrs[key]; !ok {
			t.Errorf("place.anneal missing %s attr", key)
		}
	}
	reps := d.Children(sp.ID)
	nRep := 0
	for _, c := range reps {
		if c.Name != "place.replica" {
			continue
		}
		nRep++
		if _, ok := c.Attrs["best_cost"]; !ok {
			t.Errorf("place.replica %v missing best_cost attr", c.Attrs["replica"])
		}
	}
	if nRep != 3 {
		t.Errorf("place.replica spans = %d, want 3", nRep)
	}
	if m := d.Metric("place.replicas"); m == nil || m.Value != 3 {
		t.Errorf("place.replicas metric = %v, want 3", m)
	}
}
