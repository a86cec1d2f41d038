package portopt

import (
	"context"
	"errors"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/evcache"
	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

var tech = pdk.Default()

func dpInstance(t *testing.T, name string) *PrimInstance {
	t.Helper()
	e := primlib.DiffPair
	sz := primlib.Sizing{TotalFins: 960, L: 14}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
	lay, err := cellgen.Generate(tech, e.Spec(sz),
		cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := e.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := e.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	m3 := pdk.Layer(2)
	return &PrimInstance{
		Name: name, Entry: e, Sizing: sz, Bias: bias, Ex: ex, Metrics: metrics,
		Routes: map[string]extract.Route{
			"d_a": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
		},
		NetOf: map[string]string{"d_a": "net4", "d_b": "net5"},
	}
}

func cmInstance(t *testing.T, name, outNet string) *PrimInstance {
	t.Helper()
	e := primlib.CurrentMirror
	sz := primlib.Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
	bias := primlib.Bias{Vdd: 0.8, VD: 0.15, CLoad: 2e-15}
	lay, err := cellgen.Generate(tech, e.Spec(sz),
		cellgen.Config{NFin: 12, NF: 10, M: 2, Dummies: 2, Pattern: cellgen.PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := e.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := e.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	m3 := pdk.Layer(2)
	return &PrimInstance{
		Name: name, Entry: e, Sizing: sz, Bias: bias, Ex: ex, Metrics: metrics,
		Routes: map[string]extract.Route{
			"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
		},
		NetOf: map[string]string{"d_b": outNet},
	}
}

func TestGenerateConstraintsDP(t *testing.T) {
	pi := dpInstance(t, "dp0")
	cons, sims, err := GenerateConstraints(context.Background(), tech, pi, Params{MaxWires: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 {
		t.Fatalf("constraints = %d, want 2 (nets 4, 5)", len(cons))
	}
	if sims == 0 {
		t.Error("no sims counted")
	}
	for _, c := range cons {
		if c.WMin < 1 || c.WMin > 7 {
			t.Errorf("%s wmin = %d", c.Net, c.WMin)
		}
		if c.WMax != Unbounded && c.WMax < c.WMin {
			t.Errorf("%s interval [%d, %d] inverted", c.Net, c.WMin, c.WMax)
		}
		if len(c.Curve) != 7 {
			t.Errorf("%s curve has %d points", c.Net, len(c.Curve))
		}
	}
}

func TestIntervalFromCurve(t *testing.T) {
	// Table IV's DP column: U-shaped cost with a flat bottom.
	dp := []float64{5.17, 4.40, 4.23, 4.21, 4.25, 4.33, 4.42}
	c := intervalFromCurve(dp, 0.01)
	if c.WMax == Unbounded {
		t.Fatal("U-shaped curve should be bounded")
	}
	// The minimum is at 4; with 1% tolerance 5 (4.25 <= 4.2521) is
	// still allowed — the paper's [3..5] window's upper end.
	if c.WMax != 5 {
		t.Errorf("wmax = %d, want 5", c.WMax)
	}
	if c.WMin < 2 || c.WMin > 4 {
		t.Errorf("wmin = %d, want 2..4 (max curvature of the descent)", c.WMin)
	}
	// Monotone decreasing: unbounded with knee wmin (within the
	// diminishing-returns tolerance of the floor — the paper's CM
	// column gives wmin=4 on this curve; accept the neighborhood).
	mono := []float64{4.54, 3.36, 3.00, 2.85, 2.77, 2.74, 2.70}
	c = intervalFromCurve(mono, 0.01)
	if c.WMax != Unbounded {
		t.Errorf("monotone curve should be unbounded, wmax = %d", c.WMax)
	}
	if c.WMin < 2 || c.WMin > 6 {
		t.Errorf("monotone wmin = %d", c.WMin)
	}
	// Degenerate cases.
	if c := intervalFromCurve(nil, 0.01); c.WMin != 1 || c.WMax != Unbounded {
		t.Errorf("empty curve constraint = %+v", c)
	}
	if c := intervalFromCurve([]float64{3, 5}, 0.01); c.WMin != 1 || c.WMax != 1 {
		t.Errorf("rising 2-point curve = [%d, %d], want [1, 1]", c.WMin, c.WMax)
	}
}

func TestReconcileOverlap(t *testing.T) {
	cons := []Constraint{
		{Prim: "a", Net: "n1", WMin: 1, WMax: Unbounded},
		{Prim: "b", Net: "n1", WMin: 4, WMax: Unbounded},
		{Prim: "a", Net: "n2", WMin: 2, WMax: 5},
		{Prim: "b", Net: "n2", WMin: 3, WMax: 6},
	}
	wires, sims, err := Reconcile(context.Background(), tech, nil, cons, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sims != 0 {
		t.Error("overlapping reconciliation should need no sims")
	}
	// Paper's example: net 3 with wmin 1 and 4, no upper bounds -> 4.
	if wires["n1"] != 4 {
		t.Errorf("n1 = %d, want 4 (max of wmins)", wires["n1"])
	}
	if wires["n2"] != 3 {
		t.Errorf("n2 = %d, want 3", wires["n2"])
	}
}

func TestReconcileDisjointResimulates(t *testing.T) {
	// Two primitives with artificially disjoint windows on a shared
	// net: reconciliation must re-simulate the gap and pick a count
	// inside it.
	dp := dpInstance(t, "dp0")
	dp.NetOf = map[string]string{"d_a": "shared", "d_b": "net5"}
	cm := cmInstance(t, "cm0", "shared")
	cons := []Constraint{
		{Prim: "dp0", Net: "shared", WMin: 5, WMax: 6},
		{Prim: "cm0", Net: "shared", WMin: 1, WMax: 2},
	}
	wires, sims, err := Reconcile(context.Background(), tech, []*PrimInstance{dp, cm}, cons, Params{MaxWires: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sims == 0 {
		t.Error("disjoint reconciliation must simulate")
	}
	n := wires["shared"]
	if n < 2 || n > 5 {
		t.Errorf("reconciled count %d outside gap [2, 5]", n)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	dp := dpInstance(t, "dp0")
	// The CM output drives the same net as the DP's d_a (the paper's
	// net 3 situation, here named net4).
	cm := cmInstance(t, "cm0", "net4")
	res, err := Optimize(context.Background(), tech, []*PrimInstance{dp, cm}, Params{MaxWires: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Constraints) != 3 {
		t.Fatalf("constraints = %d, want 3", len(res.Constraints))
	}
	for _, net := range []string{"net4", "net5"} {
		n, ok := res.Wires[net]
		if !ok || n < 1 || n > 6 {
			t.Errorf("net %s wires = %d (ok=%v)", net, n, ok)
		}
	}
	if res.Sims < 12 {
		t.Errorf("sims = %d, implausibly few", res.Sims)
	}
}

func TestGenerateConstraintsMissingNet(t *testing.T) {
	pi := dpInstance(t, "dp0")
	delete(pi.NetOf, "d_a")
	if _, _, err := GenerateConstraints(context.Background(), tech, pi, Params{MaxWires: 3}); err == nil {
		t.Error("route without net accepted")
	}
}

func TestReconcileUnknownPrimitive(t *testing.T) {
	cons := []Constraint{
		{Prim: "ghost", Net: "n", WMin: 5, WMax: 6},
		{Prim: "ghost2", Net: "n", WMin: 1, WMax: 2},
	}
	if _, _, err := Reconcile(context.Background(), tech, nil, cons, Params{}); err == nil {
		t.Error("unknown primitive in disjoint reconciliation accepted")
	}
}

// TestOptimizeCached pins two properties of the cached path: the
// result is bit-identical to the uncached path, and a second
// optimization over the same instances computes nothing — every
// sweep snapshot is a cache hit (the warm-run scenario the disk
// tier extends across processes).
func TestOptimizeCached(t *testing.T) {
	mk := func() []*PrimInstance {
		return []*PrimInstance{dpInstance(t, "dp0"), cmInstance(t, "cm0", "net4")}
	}
	base, err := Optimize(context.Background(), tech, mk(), Params{MaxWires: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := evcache.New()
	tr := obs.New()
	ctx := obs.With(context.Background(), tr)
	cached, err := Optimize(obs.WithSpan(ctx, tr.Start("test")), tech, mk(), Params{MaxWires: 5, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Wires) != len(base.Wires) {
		t.Fatalf("wires = %v, want %v", cached.Wires, base.Wires)
	}
	for net, n := range base.Wires {
		if cached.Wires[net] != n {
			t.Errorf("net %s: cached %d, uncached %d", net, cached.Wires[net], n)
		}
	}
	st := c.Stats()
	if st.Misses == 0 {
		t.Fatal("cached run never consulted the cache")
	}
	// Same instances again: everything is a repeat request, and the
	// request accounting must balance hits exactly.
	again, err := Optimize(obs.WithSpan(ctx, tr.Start("test2")), tech, mk(), Params{MaxWires: 5, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	for net, n := range base.Wires {
		if again.Wires[net] != n {
			t.Errorf("warm net %s: %d, want %d", net, again.Wires[net], n)
		}
	}
	st2 := c.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("warm re-optimize computed %d new entries", st2.Misses-st.Misses)
	}
	if hits := tr.Counter("evcache.hits").Value(); hits == 0 || hits != tr.Counter("optimize.repeat_evals").Value() {
		t.Errorf("evcache.hits %d != optimize.repeat_evals %d", hits, tr.Counter("optimize.repeat_evals").Value())
	}
}

// TestOptimizeRunsOnContext: port optimization's SPICE runs on the
// caller's context. An armed fault site on it fails the run with the
// injected error, and a canceled context stops it with
// context.Canceled. A fresh cache per run keeps every evaluation a
// real SPICE run.
func TestOptimizeRunsOnContext(t *testing.T) {
	prims := []*PrimInstance{dpInstance(t, "dp0"), cmInstance(t, "cm0", "net4")}
	inj, err := fault.New(1, fault.SiteSpiceOP+":error@1+")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Optimize(fault.With(context.Background(), inj), tech, prims, Params{MaxWires: 3, Cache: evcache.New()})
	if !fault.IsInjected(err) {
		t.Errorf("armed spice.op: err = %v, want an injected fault", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Optimize(ctx, tech, prims, Params{MaxWires: 3, Cache: evcache.New()})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: err = %v, want context.Canceled", err)
	}
}
