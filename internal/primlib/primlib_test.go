package primlib

import (
	"context"
	"math"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/extract"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

func dpBias() Bias {
	return Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
}

func dpSizing() Sizing { return Sizing{TotalFins: 960, L: 14} }

func extractCfg(t *testing.T, e *Entry, sz Sizing, cfg cellgen.Config) *extract.Extracted {
	t.Helper()
	lay, err := cellgen.Generate(tech, e.Spec(sz), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestRegistryCatalog(t *testing.T) {
	kinds := Kinds()
	if len(kinds) < 15 {
		t.Errorf("library has %d entries, expected a full catalog (>= 15)", len(kinds))
	}
	for _, k := range kinds {
		e, err := Lookup(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Metrics) == 0 {
			t.Errorf("%s has no metrics", k)
		}
		if len(e.Tuning) == 0 {
			t.Errorf("%s has no tuning terminals", k)
		}
		for _, m := range e.Metrics {
			if m.Weight != 1 && m.Weight != 0.5 && m.Weight != 0.1 {
				t.Errorf("%s metric %s has nonstandard weight %g", k, m.Name, m.Weight)
			}
		}
	}
	if _, err := Lookup(context.Background(), "nosuch"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDiffPairSchematicEval(t *testing.T) {
	ev, err := DiffPair.EvaluateCtx(context.Background(), tech, dpSizing(), dpBias(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gm := ev.Values["Gm"]
	if gm < 0.1e-3 || gm > 50e-3 {
		t.Errorf("schematic Gm = %g, want mA/V scale", gm)
	}
	ct := ev.Values["Ctotal"]
	if ct < 1e-15 || ct > 1e-12 {
		t.Errorf("schematic Ctotal = %g, want fF scale", ct)
	}
	if ev.Values["Gm/Ctotal"] <= 0 {
		t.Error("Gm/Ctotal missing")
	}
	// Ideal symmetric pair: offset ~ 0.
	if off := math.Abs(ev.Values["offset"]); off > 1e-5 {
		t.Errorf("schematic offset = %g, want ~0", off)
	}
	if ev.Sims != 4 {
		t.Errorf("sims = %d, want 4", ev.Sims)
	}
}

func TestDiffPairLayoutDegradesGm(t *testing.T) {
	sz := dpSizing()
	sch, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABAB})
	lay, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Values["Gm"] >= sch.Values["Gm"] {
		t.Errorf("layout Gm %g should be below schematic %g (source R degeneration)",
			lay.Values["Gm"], sch.Values["Gm"])
	}
	// Degradation is percent-scale, not order-of-magnitude.
	drop := 1 - lay.Values["Gm"]/sch.Values["Gm"]
	if drop > 0.3 {
		t.Errorf("Gm drop = %.1f%%, implausibly large", 100*drop)
	}
	// Wire capacitance adds to Ctotal.
	if lay.Values["Ctotal"] <= sch.Values["Ctotal"] {
		t.Error("layout Ctotal should exceed schematic")
	}
}

func TestDiffPairOffsetByPattern(t *testing.T) {
	sz := dpSizing()
	cc := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	gg := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB})
	evCC, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	evGG, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), gg, nil)
	if err != nil {
		t.Fatal(err)
	}
	offCC := math.Abs(evCC.Values["offset"])
	offGG := math.Abs(evGG.Values["offset"])
	if offGG <= offCC {
		t.Errorf("AABB offset %g should exceed ABBA %g", offGG, offCC)
	}
	// The simulated offset should be close to the LDE mismatch it
	// stems from (within a factor accounting for degeneration).
	mm := math.Abs(gg.Layout.MismatchDVth())
	if offGG < mm/3 || offGG > mm*3 {
		t.Errorf("simulated offset %g far from Vth mismatch %g", offGG, mm)
	}
}

func TestDiffPairCostMetricsAndCost(t *testing.T) {
	sz := dpSizing()
	sch, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := DiffPair.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 3 {
		t.Fatalf("metrics = %d", len(metrics))
	}
	// Schematic evaluated against itself costs ~0.
	c0, vals, err := Cost(metrics, sch)
	if err != nil {
		t.Fatal(err)
	}
	if c0 > 0.5 { // percent points
		t.Errorf("self-cost = %g%%, want ~0", c0)
	}
	if len(vals) != 3 {
		t.Errorf("values = %d", len(vals))
	}
	// A layout has positive cost, and AABB costs more than ABAB (the
	// offset term blows up).
	ab := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABAB})
	gg := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB})
	evAB, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ab, nil)
	if err != nil {
		t.Fatal(err)
	}
	evGG, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), gg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cAB, _, err := Cost(metrics, evAB)
	if err != nil {
		t.Fatal(err)
	}
	cGG, _, err := Cost(metrics, evGG)
	if err != nil {
		t.Fatal(err)
	}
	if cAB <= 0 {
		t.Errorf("ABAB cost = %g, want > 0", cAB)
	}
	if cGG <= cAB {
		t.Errorf("AABB cost %g should exceed ABAB %g", cGG, cAB)
	}
}

func TestDiffPairTuningImprovesGm(t *testing.T) {
	// More parallel wires on the source reduce degeneration: Gm rises
	// toward schematic — the paper's primitive tuning mechanism.
	sz := dpSizing()
	cfg := cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABAB}
	lay, err := cellgen.Generate(tech, DiffPair.Spec(sz), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := extract.Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	// Tune the whole source mesh (spine + per-side straps), as the
	// library's tuning terminal specifies.
	for _, w := range []string{"s", "s_a", "s_b"} {
		lay.Wires[w].NWires = 4
	}
	ex4, err := extract.Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"s", "s_a", "s_b"} {
		lay.Wires[w].NWires = 1
	}
	ev1, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev4, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev4.Values["Gm"] <= ev1.Values["Gm"] {
		t.Errorf("4 source wires Gm %g should exceed 1 wire %g",
			ev4.Values["Gm"], ev1.Values["Gm"])
	}
}

func TestCurrentMirrorEval(t *testing.T) {
	sz := Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
	bias := Bias{Vdd: 0.8, VD: 0.4, ITail: 50e-6, CLoad: 2e-15}
	sch, err := CurrentMirror.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized ratio near 1.
	if r := sch.Values["ratio"]; r < 0.8 || r > 1.3 {
		t.Errorf("schematic mirror ratio = %g", r)
	}
	if sch.Values["Cout"] <= 0 {
		t.Error("Cout missing")
	}
	// Layout: ratio drifts from the schematic value.
	ex := extractCfg(t, CurrentMirror, sz,
		cellgen.Config{NFin: 12, NF: 10, M: 2, Dummies: 2, Pattern: cellgen.PatABAB})
	lay, err := CurrentMirror.EvaluateCtx(context.Background(), tech, sz, bias, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Values["ratio"] == sch.Values["ratio"] {
		t.Error("layout ratio identical to schematic; LDEs not applied?")
	}
	if lay.Values["Cout"] <= sch.Values["Cout"] {
		t.Error("layout Cout should exceed schematic (wire cap)")
	}
}

func TestPMOSMirrorEval(t *testing.T) {
	sz := Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
	bias := Bias{Vdd: 0.8, VD: 0.4, ITail: 50e-6}
	sch, err := CurrentMirrorP.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := sch.Values["ratio"]; r < 0.7 || r > 1.4 {
		t.Errorf("PMOS mirror ratio = %g", r)
	}
}

func TestMirrorRatioScales(t *testing.T) {
	// A 1:2 mirror delivers twice the current; the normalized ratio
	// metric stays near 1.
	sz := Sizing{TotalFins: 120, L: 14, NominalI: 25e-6, RatioB: 2}
	bias := Bias{Vdd: 0.8, VD: 0.4}
	sch, err := CurrentMirror.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := sch.Values["ratio"]; r < 0.8 || r > 1.3 {
		t.Errorf("1:2 normalized ratio = %g", r)
	}
	if i := sch.Values["iout"]; i < 35e-6 || i > 75e-6 {
		t.Errorf("1:2 iout = %g, want ~50µA", i)
	}
}

func TestCurrentSourceEval(t *testing.T) {
	sz := Sizing{TotalFins: 64, L: 14}
	bias := Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4}
	sch, err := CurrentSource.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Values["current"] <= 0 {
		t.Error("current missing")
	}
	if ro := sch.Values["ro"]; ro < 1e3 || ro > 1e7 {
		t.Errorf("ro = %g, want kΩ–MΩ", ro)
	}
	if sch.Sims != 3 {
		t.Errorf("sims = %d, want 3", sch.Sims)
	}
	// Layout version has slightly less current (source R, LDE).
	ex := extractCfg(t, CurrentSource, sz,
		cellgen.Config{NFin: 8, NF: 8, M: 1, Dummies: 2, Pattern: cellgen.PatA})
	lay, err := CurrentSource.EvaluateCtx(context.Background(), tech, sz, bias, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Values["current"] >= sch.Values["current"] {
		t.Error("layout current should drop below schematic")
	}
}

func TestCSAmpEval(t *testing.T) {
	sz := Sizing{TotalFins: 64, L: 14}
	bias := Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, CLoad: 5e-15}
	sch, err := CSAmp.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Values["Gm"] <= 0 || sch.Values["ro"] <= 0 {
		t.Errorf("csamp metrics: %+v", sch.Values)
	}
	ex := extractCfg(t, CSAmp, sz,
		cellgen.Config{NFin: 8, NF: 8, M: 1, Dummies: 2, Pattern: cellgen.PatA})
	lay, err := CSAmp.EvaluateCtx(context.Background(), tech, sz, bias, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Values["Gm"] >= sch.Values["Gm"] {
		t.Error("layout Gm should drop")
	}
}

func TestCSInverterEval(t *testing.T) {
	sz := Sizing{TotalFins: 16, L: 14}
	bias := Bias{Vdd: 0.8, VCtrl: 0.5, CLoad: 2e-15}
	sch, err := CSInverter.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := sch.Values["delay"]; d < 1e-12 || d > 2e-9 {
		t.Errorf("delay = %g, want ps–ns scale", d)
	}
	if sch.Values["current"] <= 0 {
		t.Error("current missing")
	}
	if sch.Values["gain"] <= 0 {
		t.Error("gain missing")
	}
	// Layout adds output wire C: delay grows.
	ex := extractCfg(t, CSInverter, sz,
		cellgen.Config{NFin: 4, NF: 2, M: 2, Dummies: 2, Pattern: cellgen.PatABAB})
	lay, err := CSInverter.EvaluateCtx(context.Background(), tech, sz, bias, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Values["delay"] <= sch.Values["delay"] {
		t.Errorf("layout delay %g should exceed schematic %g",
			lay.Values["delay"], sch.Values["delay"])
	}
}

func TestPortRoutesDegradeMetrics(t *testing.T) {
	// External global routes at the DP ports: Gm drops further (drain
	// route R against ro) and Ctotal grows (route C).
	sz := dpSizing()
	ex := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABAB})
	noRoutes, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	m3 := pdk.Layer(2)
	routes := map[string]extract.Route{
		"d_a": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
		"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
	}
	withRoutes, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex, routes)
	if err != nil {
		t.Fatal(err)
	}
	if withRoutes.Values["Gm"] >= noRoutes.Values["Gm"] {
		t.Error("route R should reduce measured Gm")
	}
	// More parallel routes recover Gm.
	routes4 := map[string]extract.Route{
		"d_a": {Layer: m3, Length: 2000, NWires: 4, PinLayer: 0},
		"d_b": {Layer: m3, Length: 2000, NWires: 4, PinLayer: 0},
	}
	wide, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex, routes4)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Values["Gm"] <= withRoutes.Values["Gm"] {
		t.Error("parallel routes should recover Gm")
	}
	// More parallel routes add net capacitance — the C side of the
	// paper's Table IV trade-off.
	if wide.Values["Ctotal"] <= withRoutes.Values["Ctotal"] {
		t.Error("parallel routes should add C")
	}
}

func TestSpecConstruction(t *testing.T) {
	sz := Sizing{TotalFins: 240, L: 14, RatioB: 3}
	spec := CurrentMirror.Spec(sz)
	if spec.RatioB != 3 || spec.TotalFins != 240 || spec.Structure != cellgen.Pair {
		t.Errorf("spec = %+v", spec)
	}
	// Default ratio from the entry when sizing doesn't override.
	spec = CurrentMirror.Spec(Sizing{TotalFins: 240, L: 14})
	if spec.RatioB != 1 {
		t.Errorf("default ratio = %d", spec.RatioB)
	}
}

func TestCapacitorEval(t *testing.T) {
	// A realistic few-fF MOM cap needs thousands of unit cells.
	sz := Sizing{TotalFins: 2560, L: 14}
	bias := Bias{Vdd: 0.8}
	sch, err := Capacitor.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Values["C"] <= 0 || sch.Values["frequency"] <= 0 {
		t.Fatalf("schematic cap values: %v", sch.Values)
	}
	ex := extractCfg(t, Capacitor, sz,
		cellgen.Config{NFin: 16, NF: 20, M: 8, Dummies: 2, Pattern: cellgen.PatA})
	lay, err := Capacitor.EvaluateCtx(context.Background(), tech, sz, bias, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The measured C is within ~2x of the design value (wire C adds).
	if r := lay.Values["C"] / sch.Values["C"]; r < 0.5 || r > 2.5 {
		t.Errorf("layout/schematic C ratio = %g", r)
	}
	// Layout lead R is real, so the usable frequency is finite and
	// typically below the nominal-budget reference...
	if lay.Values["ESR"] <= 0 {
		t.Errorf("ESR = %g", lay.Values["ESR"])
	}
	// ...and tuning the terminals (more parallel wires) raises it.
	lay2 := ex.Layout
	for _, w := range []string{"d", "s"} {
		lay2.Wires[w].NWires = 4
	}
	ex4, err := extract.Primitive(context.Background(), tech, lay2)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Capacitor.EvaluateCtx(context.Background(), tech, sz, bias, ex4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Values["frequency"] <= lay.Values["frequency"] {
		t.Errorf("wider terminals should raise the RC corner: %g vs %g",
			wide.Values["frequency"], lay.Values["frequency"])
	}
	// Cost machinery works end to end for the passive too.
	metrics, err := Capacitor.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Cost(metrics, lay); err != nil {
		t.Fatal(err)
	}
}

func TestCapacitorThroughAlgorithm1(t *testing.T) {
	// The cap primitive runs through the full Algorithm 1 machinery.
	sz := Sizing{TotalFins: 2560, L: 14}
	sch, err := Capacitor.EvaluateCtx(context.Background(), tech, sz, Bias{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = sch
	lays, err := Capacitor.FindLayouts(context.Background(), tech, sz, &cellgen.Constraints{MinNFin: 8, MaxNFin: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(lays) < 2 {
		t.Fatalf("cap layouts = %d", len(lays))
	}
}

func TestCascodeDiffPairEval(t *testing.T) {
	sz := Sizing{TotalFins: 240, L: 14}
	bias := Bias{Vdd: 0.8, VCM: 0.42, VD: 0.55, ITail: 50e-6, VCasc: 0.6, CLoad: 5e-15}
	sch, err := DiffPairCascode.EvaluateCtx(context.Background(), tech, sz, bias, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Values["Gm"] <= 0 || sch.Values["Ctotal"] <= 0 {
		t.Fatalf("cascode schematic values: %v", sch.Values)
	}
	if off := math.Abs(sch.Values["offset"]); off > 1e-5 {
		t.Errorf("cascode schematic offset = %g", off)
	}
	// Layout evaluation through extraction.
	ex := extractCfg(t, DiffPairCascode, sz,
		cellgen.Config{NFin: 12, NF: 10, M: 2, Dummies: 2, Pattern: cellgen.PatABBA})
	lay, err := DiffPairCascode.EvaluateCtx(context.Background(), tech, sz, bias, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Values["Gm"] >= sch.Values["Gm"] {
		t.Error("layout Gm should drop below schematic")
	}

	// The cascode's defining property vs the plain pair: the drain
	// route resistance barely moves its measured Gm (the cascode
	// isolates the input device), while the plain pair loses Gm into
	// the same route against its smaller Rout.
	m3 := pdk.Layer(2)
	longRoute := map[string]extract.Route{
		"d_a": {Layer: m3, Length: 4000, NWires: 1, PinLayer: 0},
		"d_b": {Layer: m3, Length: 4000, NWires: 1, PinLayer: 0},
	}
	cascRouted, err := DiffPairCascode.EvaluateCtx(context.Background(), tech, sz, bias, ex, longRoute)
	if err != nil {
		t.Fatal(err)
	}
	cascDrop := 1 - cascRouted.Values["Gm"]/lay.Values["Gm"]

	plainBias := Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 50e-6, CLoad: 5e-15}
	exPlain := extractCfg(t, DiffPair, sz,
		cellgen.Config{NFin: 12, NF: 10, M: 2, Dummies: 2, Pattern: cellgen.PatABBA})
	plain, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, plainBias, exPlain, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainRouted, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, plainBias, exPlain, longRoute)
	if err != nil {
		t.Fatal(err)
	}
	plainDrop := 1 - plainRouted.Values["Gm"]/plain.Values["Gm"]
	t.Logf("Gm drop from a 4um drain route: cascode %.2f%%, plain %.2f%%",
		100*cascDrop, 100*plainDrop)
	if cascDrop >= plainDrop {
		t.Errorf("cascode should be less route-sensitive: %.3g%% vs %.3g%%",
			100*cascDrop, 100*plainDrop)
	}
}

func TestPolyResistorEval(t *testing.T) {
	sz := Sizing{TotalFins: 50, L: 14} // 50 squares -> 10 kOhm nominal
	sch, err := PolyResistor.EvaluateCtx(context.Background(), tech, sz, Bias{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sch.Values["R"]-10e3)/10e3 > 1e-9 {
		t.Errorf("schematic R = %g, want 10k", sch.Values["R"])
	}
	ex := extractCfg(t, PolyResistor, sz,
		cellgen.Config{NFin: 10, NF: 5, M: 1, Dummies: 2, Pattern: cellgen.PatA})
	lay, err := PolyResistor.EvaluateCtx(context.Background(), tech, sz, Bias{}, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Lead R adds on top of the body.
	if lay.Values["R"] <= sch.Values["R"] {
		t.Errorf("layout R %g should exceed body %g", lay.Values["R"], sch.Values["R"])
	}
	if rel := (lay.Values["R"] - sch.Values["R"]) / sch.Values["R"]; rel > 0.10 {
		t.Errorf("lead resistance %.2f%% of body, implausibly large", 100*rel)
	}
	if lay.Values["Cpar"] <= 0 {
		t.Errorf("Cpar = %g", lay.Values["Cpar"])
	}
	// The cost machinery treats the passive like any other primitive.
	metrics, err := PolyResistor.CostMetrics(tech, sz, sch)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Cost(metrics, lay)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || c > 100 {
		t.Errorf("resistor layout cost = %g", c)
	}
	// Tuning the terminals reduces the R deviation.
	for _, w := range []string{"d", "s"} {
		ex.Layout.Wires[w].NWires = 4
	}
	ex4, err := extract.Primitive(context.Background(), tech, ex.Layout)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := PolyResistor.EvaluateCtx(context.Background(), tech, sz, Bias{}, ex4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Values["R"] >= lay.Values["R"] {
		t.Error("wider leads should reduce the measured R")
	}
}

func TestEvaluateRoutesDoNotMutateExtraction(t *testing.T) {
	sz := dpSizing()
	ex := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	before := ex.Term["d_a"]
	routes := map[string]extract.Route{
		"d_a": {Layer: 2, Length: 2000, NWires: 3, PinLayer: 0},
	}
	if _, err := DiffPair.EvaluateCtx(context.Background(), tech, sz, dpBias(), ex, routes); err != nil {
		t.Fatal(err)
	}
	if ex.Term["d_a"] != before {
		t.Error("evaluation mutated the extraction")
	}
	if ex.Layout.Wires["d_a"].NWires != 1 {
		t.Error("evaluation mutated the layout wires")
	}
}

// TestTestbenchBiasCoversTestbenchReads pins the projection table
// against the testbenches. For every registered kind, the unprojected
// family dispatch and EvaluateCtx (which projects) must give
// bit-identical values and equal sim counts, on the schematic
// reference and on the first extracted layout. All seven bias fields
// are nonzero and off the testbenches' defaults (VCasc is not
// VCM+0.15, VCtrl is not Vdd/2), and Sizing.NominalI is 0 so the
// mirrors read ITail: a testbench that reads a field the table drops
// sees 0 there and fails here.
func TestTestbenchBiasCoversTestbenchReads(t *testing.T) {
	ctx := context.Background()
	bias := Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15, VCtrl: 0.6, VCasc: 0.62}
	for _, kind := range Kinds() {
		e := registry[kind]
		t.Run(kind, func(t *testing.T) {
			sz := Sizing{TotalFins: 240, L: 14}
			cons := &cellgen.Constraints{MinNFin: 4, MaxNFin: 16, MaxM: 4}
			switch e.Family.Name {
			case "csinv":
				sz.TotalFins = 16
			case "cap":
				sz.TotalFins = 2560
				cons = &cellgen.Constraints{MinNFin: 8, MaxNFin: 32}
			case "res":
				sz.TotalFins = 50
			}
			lays, err := e.FindLayouts(ctx, tech, sz, cons)
			if err != nil || len(lays) == 0 {
				t.Fatalf("layouts: %v (%d)", err, len(lays))
			}
			ex, err := extract.Primitive(ctx, tech, lays[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*extract.Extracted{nil, ex} {
				full, err := e.evaluate(runOn(ctx, tech), tech, sz, bias, x, nil)
				if err != nil {
					t.Fatalf("full bias (layout %t): %v", x != nil, err)
				}
				proj, err := e.EvaluateCtx(ctx, tech, sz, bias, x, nil)
				if err != nil {
					t.Fatalf("projected bias (layout %t): %v", x != nil, err)
				}
				if full.Sims != proj.Sims || len(full.Values) != len(proj.Values) {
					t.Errorf("layout %t: sims %d vs %d, %d vs %d values",
						x != nil, full.Sims, proj.Sims, len(full.Values), len(proj.Values))
				}
				for name, v := range full.Values {
					if p, ok := proj.Values[name]; !ok || math.Float64bits(p) != math.Float64bits(v) {
						t.Errorf("layout %t: %s = %.17g with the full bias, %.17g projected",
							x != nil, name, v, p)
					}
				}
			}
		})
	}
}
