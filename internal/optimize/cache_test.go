package optimize

import (
	"context"
	"fmt"
	"math"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/evcache"
	"primopt/internal/extract"
	"primopt/internal/obs"
	"primopt/internal/primlib"
)

// newTestEnv builds the evaluation environment the internal tuning
// helpers need, the same way Optimize does, with a fresh cache.
func newTestEnv(t *testing.T, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, tr *obs.Trace) *evalEnv {
	t.Helper()
	sch, err := e.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := e.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	return &evalEnv{
		ctx: obs.With(context.Background(), tr),
		t:   tech, pre: evcache.NewKeyPrefix(techFP, e, sz, bias), e: e, sz: sz, bias: bias, metrics: metrics,
		cache: evcache.New(), tr: tr,
		sem: make(chan struct{}, 4),
	}
}

// TestAllOptionsWiresUntouchedByTuning is the regression test for the
// Selected/AllOptions aliasing bug: tuning used to mutate wire counts
// through the shared layout pointer, corrupting the reported
// selection-phase rows. Generated layouts always start at one wire
// per terminal, so any other value in AllOptions is tuning leakage.
func TestAllOptionsWiresUntouchedByTuning(t *testing.T) {
	e, sz, bias := dpSetup()
	res, err := OptimizeCtx(context.Background(), tech, techFP, e, sz, bias, Params{Bins: 3, MaxWires: 6, Cons: smallCons()})
	if err != nil {
		t.Fatal(err)
	}
	tuned := false
	for _, s := range res.Selected {
		for _, w := range s.Layout.Wires {
			if w.NWires > 1 {
				tuned = true
			}
		}
	}
	if !tuned {
		t.Fatal("tuning never raised a wire count; the test has no teeth")
	}
	for _, o := range res.AllOptions {
		for name, w := range o.Layout.Wires {
			if w.NWires != 1 {
				t.Errorf("AllOptions %s wire %s = %d, want untouched (1)",
					o.Layout.Config.ID(), name, w.NWires)
			}
		}
	}
}

// TestCachedResultsMatchUncached checks a cached Algorithm 1 run
// against evaluations made without the cache: the schematic reference,
// every selection-phase option and every tuned option are evaluated
// again directly (extract, simulate, cost) from the result's own
// layouts, and must match what the run reported bit for bit. The
// selection phase evaluates each option once, so its sims must add up
// to those of the direct evaluations.
func TestCachedResultsMatchUncached(t *testing.T) {
	ctx := context.Background()
	e, sz, bias := dpSetup()
	p := Params{Bins: 3, MaxWires: 6, Cons: smallCons(), Cache: evcache.New()}
	res, err := OptimizeCtx(ctx, tech, techFP, e, sz, bias, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache.Stats().Hits == 0 {
		t.Fatal("cache never hit; nothing served from it was checked")
	}
	sch, err := e.EvaluateCtx(ctx, tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEval(t, "schematic", res.Schematic, sch)
	metrics, err := e.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, o Option) int {
		ex, err := extract.Primitive(ctx, tech, o.Layout.Clone())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		ev, err := e.EvaluateCtx(ctx, tech, sz, bias, ex, nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		c, _, err := primlib.Cost(metrics, ev)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameEval(t, what, o.Eval, ev)
		if math.Float64bits(o.Cost) != math.Float64bits(c) {
			t.Errorf("%s: cost %v, uncached %v", what, o.Cost, c)
		}
		return ev.Sims
	}
	sims := 0
	for i, o := range res.AllOptions {
		sims += check(fmt.Sprintf("option[%d] %s", i, o.Layout.Config.ID()), o)
	}
	if sims != res.SelectionSims {
		t.Errorf("selection sims %d, uncached %d", res.SelectionSims, sims)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	for i, s := range res.Selected {
		check(fmt.Sprintf("selected[%d] %s", i, s.Layout.Config.ID()), s)
	}
}

// sameEval reports every value of got that is not bit-identical to
// want's, and any value only one of them has.
func sameEval(t *testing.T, what string, got, want *primlib.Eval) {
	t.Helper()
	if got.Sims != want.Sims {
		t.Errorf("%s: sims %d, uncached %d", what, got.Sims, want.Sims)
	}
	if len(got.Values) != len(want.Values) {
		t.Errorf("%s: %d values, uncached %d", what, len(got.Values), len(want.Values))
	}
	for k, v := range want.Values {
		g, ok := got.Values[k]
		if !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("%s: %s = %v, uncached %v", what, k, g, v)
		}
	}
}

// TestCacheCountersAndNoDuplicateDecks is the accounting contract on
// a traced run: every repeated evaluation request is a cache hit,
// every computed one a miss that does the work once, and no SPICE
// deck is ever built twice.
func TestCacheCountersAndNoDuplicateDecks(t *testing.T) {
	e, sz, bias := dpSetup()
	tr := obs.New()
	p := Params{Bins: 3, MaxWires: 6, Cons: smallCons(), Cache: evcache.New()}
	if _, err := OptimizeCtx(obs.With(context.Background(), tr), tech, techFP, e, sz, bias, p); err != nil {
		t.Fatal(err)
	}
	hits := tr.Counter("evcache.hits").Value()
	misses := tr.Counter("evcache.misses").Value()
	if hits == 0 {
		t.Fatal("no repeated evaluations; the cache has nothing to prove")
	}
	// One miss is the schematic reference (no layout, no extraction);
	// every other miss extracts exactly once.
	if extracts := tr.Counter("extract.runs").Value(); extracts != misses-1 {
		t.Errorf("extract.runs = %d, want one per layout miss (%d)", extracts, misses-1)
	}
	if dups := tr.Counter("spice.duplicate_decks").Value(); dups != 0 {
		t.Errorf("spice.duplicate_decks = %d, want 0", dups)
	}
	st := p.Cache.Stats()
	if st.Hits != hits || st.Misses != misses {
		t.Errorf("Stats() = %+v, trace says hits=%d misses=%d", st, hits, misses)
	}
	if st.Entries == 0 || st.Bytes <= 0 {
		t.Errorf("Stats() entries=%d bytes=%d, want positive", st.Entries, st.Bytes)
	}
}

// TestCacheSharedAcrossOptimizeCalls re-runs an optimization on one
// cache: the second call must add no misses and repeat the exact
// result (the flow relies on this for identical primitive instances).
// The csinv case is two RO-VCO stages, whose biases differ only in
// the schematic-OP gate and drain voltages that the csinv testbenches
// never read.
func TestCacheSharedAcrossOptimizeCalls(t *testing.T) {
	dp, dpSz, dpBias := dpSetup()
	stage := primlib.Bias{Vdd: 0.8, VCM: 0.35967466467973946, VD: 0.35967466467973963, CLoad: 6e-15, VCtrl: 0.6}
	nextStage := stage
	nextStage.VCM, nextStage.VD = 0.3596746646797397, 0.35967466467973946
	cases := []struct {
		name          string
		e             *primlib.Entry
		sz            primlib.Sizing
		first, second primlib.Bias
	}{
		{"diffpair", dp, dpSz, dpBias, dpBias},
		{"csinv", primlib.CSInverter, primlib.Sizing{TotalFins: 16, L: 14}, stage, nextStage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{Bins: 3, MaxWires: 6, Cons: smallCons(), Cache: evcache.New()}
			first, err := OptimizeCtx(context.Background(), tech, techFP, tc.e, tc.sz, tc.first, p)
			if err != nil {
				t.Fatal(err)
			}
			missesAfterFirst := p.Cache.Stats().Misses
			second, err := OptimizeCtx(context.Background(), tech, techFP, tc.e, tc.sz, tc.second, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Cache.Stats().Misses; got != missesAfterFirst {
				t.Errorf("second run added %d misses, want 0", got-missesAfterFirst)
			}
			if first.TotalSims() != second.TotalSims() {
				t.Errorf("sims accounting drifted across cached runs: %d vs %d",
					first.TotalSims(), second.TotalSims())
			}
			if second.Bias != tc.second {
				t.Errorf("result bias %+v, want the full bias %+v", second.Bias, tc.second)
			}
			if len(first.Selected) != len(second.Selected) {
				t.Fatalf("selected: %d vs %d", len(first.Selected), len(second.Selected))
			}
			for i := range first.Selected {
				if first.Selected[i].Cost != second.Selected[i].Cost {
					t.Errorf("selected[%d] cost %v vs %v", i, first.Selected[i].Cost, second.Selected[i].Cost)
				}
			}
		})
	}
}

// TestSweepJointErrorLeavesWiresUntouched: an evaluation failure mid
// joint enumeration must not leave the layout at an arbitrary wire
// assignment (it used to mutate in place as it enumerated).
func TestSweepJointErrorLeavesWiresUntouched(t *testing.T) {
	e := primlib.CurrentMirror
	sz := primlib.Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
	bias := primlib.Bias{Vdd: 0.8, VD: 0.4, CLoad: 2e-15}
	env := newTestEnv(t, e, sz, bias, nil)
	lays, err := e.FindLayouts(context.Background(), tech, sz, &cellgen.Constraints{MinNFin: 8, MaxNFin: 12, MaxM: 4})
	if err != nil || len(lays) == 0 {
		t.Fatalf("layouts: %v (%d)", err, len(lays))
	}
	lay := lays[0]
	var group []primlib.TuningTerm
	for _, g := range correlationGroups(e.Tuning) {
		if len(g) > 1 {
			group = g
			break
		}
	}
	if group == nil {
		t.Fatal("current mirror has no correlated group")
	}
	// Poison the layout so extraction fails on every combination.
	for _, w := range lay.Wires {
		w.Length = -1
		break
	}
	before := map[string]int{}
	for name, w := range lay.Wires {
		before[name] = w.NWires
	}
	if _, err := sweepJoint(env, lay, group, 3); err == nil {
		t.Fatal("poisoned layout evaluated without error")
	}
	for name, w := range lay.Wires {
		if w.NWires != before[name] {
			t.Errorf("wire %s mutated to %d by failed sweep (was %d)", name, w.NWires, before[name])
		}
	}
}

// TestSweepJointTruncationCounter: groups beyond two terminals are
// bounded to a pair, and a traced run must say so instead of silently
// dropping the extra terminal.
func TestSweepJointTruncationCounter(t *testing.T) {
	e, sz, bias := dpSetup()
	tr := obs.New()
	env := newTestEnv(t, e, sz, bias, tr)
	lays, err := e.FindLayouts(context.Background(), tech, sz, smallCons())
	if err != nil || len(lays) == 0 {
		t.Fatalf("layouts: %v (%d)", err, len(lays))
	}
	group := []primlib.TuningTerm{
		{Name: "a", Wires: []string{"s"}},
		{Name: "b", Wires: []string{"d_a"}},
		{Name: "c", Wires: []string{"d_b"}},
	}
	if _, err := sweepJoint(env, lays[0], group, 2); err != nil {
		t.Fatal(err)
	}
	if n := tr.Counter("optimize.joint_group_truncated").Value(); n != 1 {
		t.Errorf("optimize.joint_group_truncated = %d, want 1", n)
	}
	// The dropped third terminal must be untouched.
	if n := lays[0].Wires["d_b"].NWires; n != 1 {
		t.Errorf("truncated terminal's wire count changed to %d", n)
	}
}

// TestAssignBinsDegenerateRatios covers the aspect ratios math.Log
// cannot bin: zero, negative, NaN, and infinite. They must land in
// bin 0 without poisoning the binning of the healthy options (and
// without a NaN reaching Go's unspecified float→int conversion).
func TestAssignBinsDegenerateRatios(t *testing.T) {
	mk := func(ars ...float64) []Option {
		out := make([]Option, len(ars))
		for i, ar := range ars {
			out[i] = Option{Layout: &cellgen.Layout{AspectRatio: ar}}
		}
		return out
	}
	cases := []struct {
		name string
		opts []Option
		want []int
	}{
		{"nan_between_good", mk(0.1, math.NaN(), 1.0), []int{0, 0, 1}},
		{"zero_and_negative", mk(0, -2, 0.1, 1.0), []int{0, 0, 0, 1}},
		{"pos_inf", mk(math.Inf(1), 0.1, 1.0), []int{0, 0, 1}},
		{"all_degenerate", mk(0, math.NaN(), math.Inf(-1)), []int{0, 0, 0}},
		{"single_good_rest_bad", mk(math.NaN(), 0.5), []int{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assignBins(tc.opts, 2)
			for i := range tc.opts {
				if tc.opts[i].Bin != tc.want[i] {
					t.Errorf("opt[%d] (ar=%v) bin = %d, want %d",
						i, tc.opts[i].Layout.AspectRatio, tc.opts[i].Bin, tc.want[i])
				}
			}
		})
	}
}
