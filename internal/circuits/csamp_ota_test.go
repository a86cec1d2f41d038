package circuits

import (
	"context"
	"math"
	"testing"

	"primopt/internal/pdk"
)

var tech = pdk.Default()

func TestCommonSourceBuilds(t *testing.T) {
	bm, err := CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Insts) != 2 {
		t.Fatalf("insts = %d", len(bm.Insts))
	}
	// Bias search left the output near mid-rail.
	op, err := bm.SchematicOPCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if v := op.Volt("out"); math.Abs(v-0.38) > 0.05 {
		t.Errorf("output bias = %g, want ~vin", v)
	}
	// Bias derivation picks up the schematic voltages (self-biased
	// gate follows the output).
	b := bm.Inst("cs1").Bias(op)
	if math.Abs(b.VCM-op.Volt("in")) > 1e-9 {
		t.Errorf("VCM = %g, want V(in) = %g", b.VCM, op.Volt("in"))
	}
	if math.Abs(b.VD-op.Volt("out")) > 1e-9 {
		t.Errorf("VD = %g", b.VD)
	}
}

func TestCommonSourceSchematicMetrics(t *testing.T) {
	bm, err := CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := bm.Eval(context.Background(), tech, bm.Schematic)
	if err != nil {
		t.Fatal(err)
	}
	if g := vals["gain_db"]; g < 6 || g > 60 {
		t.Errorf("gain = %g dB, want amplifying", g)
	}
	if u := vals["ugf"]; u < 1e8 || u > 5e11 {
		t.Errorf("UGF = %g", u)
	}
	if p := vals["power"]; p <= 0 || p > 5e-3 {
		t.Errorf("power = %g", p)
	}
}

func TestOTA5TSchematicMetrics(t *testing.T) {
	bm, err := OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := bm.SchematicOPCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	// Balanced: both outputs at sane levels, tail low.
	if v := op.Volt("out"); v < 0.2 || v > 0.75 {
		t.Errorf("V(out) = %g", v)
	}
	if v := op.Volt("tail"); v < 0.02 || v > 0.4 {
		t.Errorf("V(tail) = %g", v)
	}
	vals, err := bm.Eval(context.Background(), tech, bm.Schematic)
	if err != nil {
		t.Fatal(err)
	}
	if g := vals["gain_db"]; g < 15 || g > 60 {
		t.Errorf("OTA gain = %g dB", g)
	}
	if u := vals["ugf"]; u < 1e8 || u > 5e10 {
		t.Errorf("OTA UGF = %g", u)
	}
	if f := vals["f3db"]; f <= 0 || f >= vals["ugf"] {
		t.Errorf("f3db = %g vs ugf %g", f, vals["ugf"])
	}
	if pm := vals["pm"]; pm < 30 || pm > 120 {
		t.Errorf("PM = %g", pm)
	}
	// Total current ~ 2x tail + reference = ~120 µA.
	if i := vals["current"]; i < 50e-6 || i > 300e-6 {
		t.Errorf("supply current = %g", i)
	}
}

func TestBenchmarkValidateCatchesErrors(t *testing.T) {
	bm, err := OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	bad := *bm
	bad.Insts = append([]*Inst{}, bm.Insts...)
	bad.Insts[0] = &Inst{Name: "x", Kind: "nosuchkind", DevA: []string{"m1"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	bad.Insts[0] = &Inst{Name: "x", Kind: "diffpair", DevA: []string{"ghost"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown device accepted")
	}
	bad.Insts[0] = &Inst{Name: "x", Kind: "diffpair", DevA: []string{"m1"},
		TermNets: map[string]string{"d_a": "nonet"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown net accepted")
	}
}

func TestInstLookup(t *testing.T) {
	bm, err := OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Inst("dp0") == nil {
		t.Error("dp0 missing")
	}
	if bm.Inst("ghost") != nil {
		t.Error("phantom instance")
	}
}

func TestInstBiasFallbacks(t *testing.T) {
	bm, err := OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := bm.SchematicOPCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	// Pair instance: VCM from g_a, VD from d_a.
	dp := bm.Inst("dp0").Bias(op)
	if dp.VCM != op.Volt("inp") || dp.VD != op.Volt("o1") {
		t.Errorf("pair bias = %+v", dp)
	}
	// Static values survive.
	if dp.ITail != 80e-6 {
		t.Errorf("ITail = %g", dp.ITail)
	}
	// Single-device instance (csamp benchmark): g/d fallbacks.
	cs, err := CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	opc, err := cs.SchematicOPCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	b1 := cs.Inst("cs1").Bias(opc)
	if b1.VCM != opc.Volt("in") || b1.VD != opc.Volt("out") {
		t.Errorf("single bias = %+v", b1)
	}
}

func TestEvalVCOCurveNoOscillation(t *testing.T) {
	bm, err := ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Control voltages far below threshold: nothing oscillates.
	if _, err := EvalVCOCurveCtx(context.Background(), tech, bm.Schematic, []float64{0.0, 0.05}); err == nil {
		t.Error("dead VCO produced a curve")
	}
}

func TestBenchmarkEvalRejectsBrokenNetlist(t *testing.T) {
	bm, err := OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	broken := bm.Schematic.Clone()
	broken.Remove("vip")
	if _, err := bm.Eval(context.Background(), tech, broken); err == nil {
		t.Error("eval accepted a netlist without its input source")
	}
}

func TestStrongARMNoDecisionDetected(t *testing.T) {
	bm, err := StrongARM(tech)
	if err != nil {
		t.Fatal(err)
	}
	// Ground the clock: the comparator never evaluates, and the eval
	// must report the missing decision rather than a bogus delay.
	dead := bm.Schematic.Clone()
	dead.Device("vclk").Wave = nil
	dead.Device("vclk").DC = 0
	if _, err := bm.Eval(context.Background(), tech, dead); err == nil {
		t.Error("clock-less comparator produced a delay")
	}
}
