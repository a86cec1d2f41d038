package place_test

import (
	"context"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/pdk"
	"primopt/internal/place"
)

// TestIncrementalMatchesFullOnFlowInputs runs the incremental-equals-
// full assertion on the placements the flow really makes: every
// benchmark circuit's optimized layout (the RO-VCO at 8 stages) at
// seed 1, with one and with three replicas. Only the layout runs
// (flow.VerifyContext), not the post-layout evaluation.
func TestIncrementalMatchesFullOnFlowInputs(t *testing.T) {
	defer place.CheckIncremental()()
	tech := pdk.Default()
	for _, name := range circuits.Names() {
		bm, err := circuits.Build(tech, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		cache := evcache.New()
		for _, reps := range []int{1, 3} {
			p := flow.Params{Seed: 1, PlaceReplicas: reps}
			p.Optimize.Cache = cache
			if _, err := flow.VerifyContext(context.Background(), tech, bm, flow.Optimized, p); err != nil {
				t.Fatalf("%s, %d replicas: %v", name, reps, err)
			}
		}
	}
}
