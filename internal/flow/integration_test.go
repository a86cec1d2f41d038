package flow

import (
	"context"
	"math"
	"strings"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/circuits"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/spice"
)

func TestStrongARMFlowShape(t *testing.T) {
	bm, err := circuits.StrongARM(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	results := map[Mode]*Result{}
	for _, mode := range []Mode{Schematic, Conventional, Optimized} {
		r, err := RunContext(context.Background(), tech, bm, mode, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = r
	}
	sch := results[Schematic].Metrics["delay"]
	conv := results[Conventional].Metrics["delay"]
	opt := results[Optimized].Metrics["delay"]
	t.Logf("delay sch=%.3g conv=%.3g opt=%.3g", sch, conv, opt)
	// Table VI shape: layout slows the comparator; the optimized flow
	// recovers part of the penalty.
	if conv <= sch {
		t.Errorf("conventional delay %.3g not above schematic %.3g", conv, sch)
	}
	if opt > conv {
		t.Errorf("optimized delay %.3g above conventional %.3g", opt, conv)
	}
	// The comparator still makes clean decisions post-layout (Eval
	// errors otherwise), and power stays finite and positive.
	for mode, r := range results {
		if p := r.Metrics["power"]; p <= 0 || math.IsNaN(p) {
			t.Errorf("%v power = %g", mode, p)
		}
	}
	// Five primitives were optimized.
	if n := len(results[Optimized].PrimResults); n != 5 {
		t.Errorf("optimized %d primitives, want 5", n)
	}
}

func TestROVCOFlowShape(t *testing.T) {
	if testing.Short() {
		t.Skip("VCO transient sims are slow")
	}
	bm, err := circuits.ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	results := map[Mode]*Result{}
	for _, mode := range []Mode{Schematic, Conventional, Optimized} {
		r, err := RunContext(context.Background(), tech, bm, mode, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = r
	}
	sch := results[Schematic].Metrics["fmax"]
	conv := results[Conventional].Metrics["fmax"]
	opt := results[Optimized].Metrics["fmax"]
	t.Logf("fmax sch=%.3g conv=%.3g opt=%.3g", sch, conv, opt)
	if !(sch > opt && opt > conv) {
		t.Errorf("fmax ordering violated: sch %.3g, opt %.3g, conv %.3g", sch, opt, conv)
	}
	// The optimized netlist has the spliced csinv parasitics for all
	// stages (4 stages x internal wires).
	if len(results[Optimized].Netlist.Devices) <= len(bm.Schematic.Devices)+8 {
		t.Error("csinv splicing added too few elements")
	}
}

func TestRunFixedWiresMonotoneR(t *testing.T) {
	// The fixed-wires knob: more wires means less series R in the
	// assembled netlist.
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunFixedWiresContext(context.Background(), tech, bm, 1, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunFixedWiresContext(context.Background(), tech, bm, 8, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	d1 := r1.Netlist.Device("cs1_rw_d")
	d8 := r8.Netlist.Device("cs1_rw_d")
	if d1 == nil || d8 == nil {
		t.Fatal("drain splice resistors missing")
	}
	if d8.Value >= d1.Value {
		t.Errorf("8-wire drain R %.3g not below 1-wire %.3g", d8.Value, d1.Value)
	}
	if r1.NetWires["out"] != 1 || r8.NetWires["out"] != 8 {
		t.Errorf("net wires = %v / %v", r1.NetWires, r8.NetWires)
	}
}

func TestFlowDeterminism(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunContext(context.Background(), tech, bm, Optimized, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), tech, bm, Optimized, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Metrics {
		if math.Abs(v-b.Metrics[k]) > 1e-12*math.Abs(v) {
			t.Errorf("metric %s not deterministic: %.12g vs %.12g", k, v, b.Metrics[k])
		}
	}
}

func TestRouterConstraintsOutput(t *testing.T) {
	bm, err := circuits.OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContext(context.Background(), tech, bm, Optimized, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	text := r.RouterConstraints(bm)
	t.Log("\n" + text)
	for _, want := range []string{
		"parallel_routes",
		"symmetric o1 out", // the DP's drain pair must stay matched
	} {
		if !strings.Contains(text, want) {
			t.Errorf("constraints missing %q:\n%s", want, text)
		}
	}
	// Schematic runs emit nothing.
	s, err := RunContext(context.Background(), tech, bm, Schematic, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.RouterConstraints(bm) != "" {
		t.Error("schematic run produced router constraints")
	}
}

func TestSpliceCascodePair(t *testing.T) {
	// A hand-built telescopic branch using the cascoded-pair
	// primitive, run through Assemble directly.
	b := circuitBuilderForCascode()
	bm := &circuits.Benchmark{
		Name:      "casctest",
		Schematic: b,
		Insts: []*circuits.Inst{{
			Name:   "cdp0",
			Kind:   "diffpair_cascode",
			Sizing: primlib.Sizing{TotalFins: 240, L: 14},
			DevA:   []string{"m1", "m2"},
			DevB:   []string{"mc1", "mc2"},
			TermNets: map[string]string{
				"d_a": "oa", "d_b": "ob", "g_a": "inp", "g_b": "inn", "s": "tail",
			},
			StaticBias: primlib.Bias{Vdd: 0.8, ITail: 50e-6, VCasc: 0.6, CLoad: 2e-15},
		}},
		MetricOrder: []string{},
		MetricUnit:  map[string]string{},
		Eval: func(_ context.Context, tech2 *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error) {
			return map[string]float64{}, nil
		},
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := RunContext(context.Background(), tech, bm, Conventional, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	nl := r.Netlist
	// Cascode drains spliced onto the wire nodes.
	if nl.Device("mc1").Nets[0] == "oa" {
		t.Error("cascode drain not spliced")
	}
	if nl.Device("cdp0_rw_d_a") == nil || nl.Device("cdp0_rw_s") == nil {
		t.Error("splice resistors missing")
	}
	// Input gates spliced; cascode gates untouched (bias net).
	if nl.Device("m1").Nets[1] == "inp" {
		t.Error("input gate not spliced")
	}
	if nl.Device("mc1").Nets[1] != "vcasc" {
		t.Errorf("cascode gate moved to %s", nl.Device("mc1").Nets[1])
	}
	// The assembled netlist still solves.
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OP(); err != nil {
		t.Fatalf("cascode assembly broken: %v", err)
	}
}

func circuitBuilderForCascode() *circuit.Netlist {
	b := circuit.NewBuilder("casctest")
	b.V("vdd", "vdd", "0", 0.8).
		V("vip", "inp", "0", 0.42).
		V("vin", "inn", "0", 0.42).
		V("vc", "vcasc", "0", 0.6).
		I("it", "tail", "0", 50e-6).
		MOS("m1", circuit.NMOS, "ma", "inp", "tail", "0", 6, 10, 2, 14).
		MOS("m2", circuit.NMOS, "mb", "inn", "tail", "0", 6, 10, 2, 14).
		MOS("mc1", circuit.NMOS, "oa", "vcasc", "ma", "0", 6, 10, 2, 14).
		MOS("mc2", circuit.NMOS, "ob", "vcasc", "mb", "0", 6, 10, 2, 14).
		R("rla", "vdd", "oa", 8e3).
		R("rlb", "vdd", "ob", 8e3)
	return b.Netlist()
}

func TestTelescopicFlowShape(t *testing.T) {
	// The extension circuit: cascoded input pair through the full
	// flow. The cascode isolates the pair from the output routes, so
	// the layout penalty concentrates in bandwidth, which the
	// optimized flow recovers.
	bm, err := circuits.Telescopic(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	results := map[Mode]*Result{}
	for _, mode := range []Mode{Schematic, Conventional, Optimized} {
		r, err := RunContext(context.Background(), tech, bm, mode, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = r
	}
	for _, m := range []string{"gain_db", "ugf", "pm"} {
		t.Logf("%-8s sch=%.5g conv=%.5g opt=%.5g", m,
			results[Schematic].Metrics[m], results[Conventional].Metrics[m],
			results[Optimized].Metrics[m])
	}
	sch := results[Schematic].Metrics["ugf"]
	conv := results[Conventional].Metrics["ugf"]
	opt := results[Optimized].Metrics["ugf"]
	dConv := math.Abs(sch - conv)
	dOpt := math.Abs(sch - opt)
	if dOpt > dConv+1e-9 {
		t.Errorf("optimized UGF deviation %.4g exceeds conventional %.4g", dOpt, dConv)
	}
	// High gain survives layout in both flows (the cascode's shielding).
	for mode, r := range results {
		if g := r.Metrics["gain_db"]; g < 55 {
			t.Errorf("%v gain = %.1f dB, telescopic gain collapsed", mode, g)
		}
	}
}

func TestConventionalPicksCompactLayouts(t *testing.T) {
	// The conventional baseline optimizes geometry only: each
	// primitive's chosen layout is the area-minimal configuration.
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := bm.SchematicOPCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	choices, err := conventionalChoices(context.Background(), tech, bm, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, ch := range choices {
		entry := ch.entry
		lays, err := entry.FindLayouts(context.Background(), tech, ch.inst.Sizing, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lays {
			if l.BBox.Area() < ch.ex.Layout.BBox.Area() {
				t.Errorf("%s: smaller layout %s exists (%d < %d)",
					name, l.Config.ID(), l.BBox.Area(), ch.ex.Layout.BBox.Area())
				break
			}
		}
		// Conventional means single wires everywhere.
		for w, we := range ch.ex.Layout.Wires {
			if we.NWires != 1 {
				t.Errorf("%s wire %s has %d wires in conventional mode", name, w, we.NWires)
			}
		}
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), tech, bm, Mode(42), fastParams()); err == nil {
		t.Error("unknown mode accepted")
	}
}
