package optimize

import (
	"context"
	"math"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

var tech = pdk.Default()

// techFP is tech's fingerprint, computed once as the flow does.
var techFP = tech.Fingerprint()

func dpSetup() (*primlib.Entry, primlib.Sizing, primlib.Bias) {
	return primlib.DiffPair,
		primlib.Sizing{TotalFins: 960, L: 14},
		primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
}

// smallCons keeps test runtime modest: a handful of configurations.
func smallCons() *cellgen.Constraints {
	return &cellgen.Constraints{MinNFin: 8, MaxNFin: 24, MaxM: 6}
}

func TestOptimizeDiffPair(t *testing.T) {
	e, sz, bias := dpSetup()
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{Bins: 3, MaxWires: 6, Cons: smallCons()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllOptions) < 6 {
		t.Fatalf("only %d options evaluated", len(res.AllOptions))
	}
	if len(res.Selected) == 0 || len(res.Selected) > 3 {
		t.Fatalf("selected = %d, want 1..3", len(res.Selected))
	}
	// One option per bin, bins distinct.
	seen := map[int]bool{}
	for _, s := range res.Selected {
		if seen[s.Bin] {
			t.Errorf("bin %d selected twice", s.Bin)
		}
		seen[s.Bin] = true
	}
	// Selected options must not cost more than the bin's cheapest
	// untuned option (tuning only improves).
	for _, s := range res.Selected {
		for _, o := range res.AllOptions {
			if o.Bin == s.Bin && s.Cost > o.Cost+1e-9 {
				t.Errorf("bin %d: tuned cost %.2f above untuned option %.2f (%s)",
					s.Bin, s.Cost, o.Cost, o.Layout.Config.ID())
				break
			}
		}
	}
	if res.SelectionSims == 0 || res.TuningSims == 0 {
		t.Error("sim accounting missing")
	}
	if res.TotalSims() != res.SelectionSims+res.TuningSims {
		t.Error("TotalSims inconsistent")
	}
}

func TestOptimizePrefersCommonCentroidOrInterdigitated(t *testing.T) {
	// The AABB pattern must never win a bin where a symmetric pattern
	// is available: its offset cost term dominates.
	e, sz, bias := dpSetup()
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{Bins: 3, MaxWires: 4, Cons: smallCons()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Selected {
		if s.Layout.Config.Pattern == cellgen.PatAABB {
			// Legal only if no alternative existed in that bin.
			alt := false
			for _, o := range res.AllOptions {
				if o.Bin == s.Bin && o.Layout.Config.Pattern != cellgen.PatAABB {
					alt = true
					break
				}
			}
			if alt {
				t.Errorf("AABB won bin %d despite alternatives", s.Bin)
			}
		}
	}
}

func TestTuningIncreasesWireCount(t *testing.T) {
	// Source-mesh tuning should settle above a single wire for this
	// large pair (the R side dominates at n=1).
	e, sz, bias := dpSetup()
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{Bins: 1, MaxWires: 6, Cons: smallCons()})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no selection")
	}
	if n := best.Layout.Wires["s"].NWires; n < 2 {
		t.Errorf("tuned source wires = %d, want >= 2", n)
	}
}

func TestBestIsMinimumCost(t *testing.T) {
	e, sz, bias := dpSetup()
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{Bins: 3, MaxWires: 4, Cons: smallCons()})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	for _, s := range res.Selected {
		if s.Cost < best.Cost {
			t.Errorf("Best() %g not minimal (%g available)", best.Cost, s.Cost)
		}
	}
}

func TestCorrelatedJointTuning(t *testing.T) {
	// The current mirror's source and drain terminals are correlated:
	// the optimizer must enumerate jointly and still improve cost.
	e := primlib.CurrentMirror
	sz := primlib.Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
	bias := primlib.Bias{Vdd: 0.8, VD: 0.4, CLoad: 2e-15}
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{
		Bins: 2, MaxWires: 4,
		Cons: &cellgen.Constraints{MinNFin: 8, MaxNFin: 12, MaxM: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	// Joint tuning burns more sims than a single independent sweep
	// would (a 5x5 grid of wire counts at minimum).
	if res.TuningSims < 25 {
		t.Errorf("joint tuning sims = %d, expected >= 25", res.TuningSims)
	}
}

func TestCorrelationGroups(t *testing.T) {
	terms := []primlib.TuningTerm{
		{Name: "a"},
		{Name: "b", CorrelatedWith: "c"},
		{Name: "c", CorrelatedWith: "b"},
	}
	groups := correlationGroups(terms)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if len(groups[0]) != 1 || groups[0][0].Name != "a" {
		t.Errorf("group 0 = %+v", groups[0])
	}
	if len(groups[1]) != 2 {
		t.Errorf("group 1 = %+v", groups[1])
	}
	// Dangling correlation target: stays a singleton without panic.
	terms2 := []primlib.TuningTerm{{Name: "x", CorrelatedWith: "ghost"}}
	if g := correlationGroups(terms2); len(g) != 1 || len(g[0]) != 1 {
		t.Errorf("dangling correlation mishandled: %+v", g)
	}
}

func TestAssignBins(t *testing.T) {
	mk := func(ar float64) Option {
		return Option{Layout: &cellgen.Layout{AspectRatio: ar}}
	}
	opts := []Option{mk(0.03), mk(0.1), mk(0.7), mk(0.05), mk(0.5)}
	assignBins(opts, 3)
	if opts[0].Bin != 0 {
		t.Errorf("smallest AR bin = %d", opts[0].Bin)
	}
	if opts[2].Bin != 2 {
		t.Errorf("largest AR bin = %d", opts[2].Bin)
	}
	for _, o := range opts {
		if o.Bin < 0 || o.Bin > 2 {
			t.Errorf("bin out of range: %d", o.Bin)
		}
	}
	// Degenerate: all the same ratio.
	same := []Option{mk(0.5), mk(0.5)}
	assignBins(same, 3)
	if same[0].Bin != 0 || same[1].Bin != 0 {
		t.Error("identical ARs should share bin 0")
	}
	assignBins(nil, 3) // must not panic
}

func TestSchematicCostNearZeroAfterOptimize(t *testing.T) {
	// The whole point: the best tuned option's cost is small —
	// metrics within a few percent of schematic.
	e, sz, bias := dpSetup()
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{Bins: 3, MaxWires: 8, Cons: smallCons()})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best.Cost > 60 {
		t.Errorf("best tuned cost = %.1f%%, want modest", best.Cost)
	}
	// And it must improve on the worst option substantially.
	worst := 0.0
	for _, o := range res.AllOptions {
		worst = math.Max(worst, o.Cost)
	}
	if worst <= best.Cost {
		t.Error("optimization did not separate best from worst")
	}
}

func TestOptimizeErrorPropagation(t *testing.T) {
	// An unfactorable fin count fails cleanly.
	e, _, bias := dpSetup()
	if _, err := OptimizeCtx(context.Background(), tech, techFP, e, primlib.Sizing{TotalFins: 37, L: 14}, bias, Params{}); err == nil {
		t.Error("unfactorable sizing accepted")
	}
	// A broken bias (no tail current for a mirror) fails in the
	// schematic reference with a useful error.
	if _, err := OptimizeCtx(context.Background(), tech, techFP, primlib.CurrentMirror,
		primlib.Sizing{TotalFins: 240, L: 14}, primlib.Bias{Vdd: 0.8, VD: 0.4}, Params{}); err == nil {
		t.Error("mirror without reference current accepted")
	}
}

func TestSweepJointTruncatesLargeGroups(t *testing.T) {
	// Groups beyond two correlated terminals are bounded (the paper
	// notes more than two is rare); the enumeration must stay finite
	// and still improve the layout.
	terms := []primlib.TuningTerm{
		{Name: "a", Wires: []string{"s"}, CorrelatedWith: "b"},
		{Name: "b", Wires: []string{"d_a"}, CorrelatedWith: "c"},
		{Name: "c", Wires: []string{"d_b"}, CorrelatedWith: "a"},
	}
	groups := correlationGroups(terms)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %+v", groups)
	}
}
