package flow

import (
	"context"
	"math"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/circuits"
	"primopt/internal/optimize"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

// fastParams keeps flow tests quick: few bins, short sweeps.
func fastParams() Params {
	return Params{
		Seed: 1,
		Optimize: optimize.Params{
			Bins: 2, MaxWires: 8,
			Cons: &cellgen.Constraints{MinNFin: 4, MaxNFin: 16, MaxM: 4},
		},
	}
}

func TestCSAmpFourModes(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	results := map[Mode]*Result{}
	for _, mode := range []Mode{Schematic, Conventional, Optimized} {
		r, err := RunContext(context.Background(), tech, bm, mode, fastParams())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = r
	}
	sch := results[Schematic].Metrics
	conv := results[Conventional].Metrics
	opt := results[Optimized].Metrics

	// The headline claim (Fig. 2): UGF recovers toward schematic with
	// optimization, while gain is nearly layout-insensitive (source
	// degeneration cancels out of gm·ro — the paper's Fig. 2 gain
	// column moves under 1%). Require strict improvement on UGF and
	// small relative error on gain for both layout flows.
	dConv := math.Abs(sch["ugf"] - conv["ugf"])
	dOpt := math.Abs(sch["ugf"] - opt["ugf"])
	if dOpt > dConv+1e-9 {
		t.Errorf("ugf: optimized deviation %.4g exceeds conventional %.4g (sch=%.4g conv=%.4g opt=%.4g)",
			dOpt, dConv, sch["ugf"], conv["ugf"], opt["ugf"])
	}
	for _, mode := range []Mode{Conventional, Optimized} {
		g := results[mode].Metrics["gain_db"]
		if rel := math.Abs(sch["gain_db"]-g) / sch["gain_db"]; rel > 0.06 {
			t.Errorf("%v gain relative error %.3g%%", mode, 100*rel)
		}
	}
	// Layout modes must actually degrade something vs schematic.
	if conv["ugf"] >= sch["ugf"] {
		t.Errorf("conventional UGF %.4g not degraded vs schematic %.4g", conv["ugf"], sch["ugf"])
	}
	// Structural outputs present.
	r := results[Optimized]
	if r.Placement == nil || r.Routing == nil || r.Netlist == nil {
		t.Error("optimized run missing layout artifacts")
	}
	if r.Sims == 0 {
		t.Error("no simulations counted")
	}
	if len(r.PrimResults) != 2 {
		t.Errorf("primitive results = %d", len(r.PrimResults))
	}
	// The assembled netlist is larger than the schematic (spliced RC).
	if len(r.Netlist.Devices) <= len(bm.Schematic.Devices) {
		t.Error("assembly added no parasitics")
	}
}

func TestOTAFlowOptimizedBeatsConventional(t *testing.T) {
	bm, err := circuits.OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := RunContext(context.Background(), tech, bm, Schematic, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := RunContext(context.Background(), tech, bm, Conventional, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunContext(context.Background(), tech, bm, Optimized, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	// Table VI shape: the parasitic-dominated metrics (UGF, 3dB BW)
	// must land strictly closer to schematic than conventional; the
	// DC-balance metrics (gain, current) just need to stay within a
	// small relative error, since both flows keep them sub-percent.
	for _, m := range []string{"ugf", "f3db"} {
		dConv := math.Abs(sch.Metrics[m] - conv.Metrics[m])
		dOpt := math.Abs(sch.Metrics[m] - opt.Metrics[m])
		t.Logf("%-8s sch=%.5g conv=%.5g opt=%.5g", m, sch.Metrics[m], conv.Metrics[m], opt.Metrics[m])
		if dOpt > dConv+1e-12 {
			t.Errorf("%s: optimized deviation %.4g exceeds conventional %.4g", m, dOpt, dConv)
		}
	}
	for _, m := range []string{"gain_db", "current"} {
		rel := math.Abs(sch.Metrics[m]-opt.Metrics[m]) / math.Abs(sch.Metrics[m])
		t.Logf("%-8s sch=%.5g conv=%.5g opt=%.5g", m, sch.Metrics[m], conv.Metrics[m], opt.Metrics[m])
		if rel > 0.02 {
			t.Errorf("%s: optimized relative error %.3g%%", m, 100*rel)
		}
	}
	if opt.NetWires == nil || len(opt.NetWires) == 0 {
		t.Error("no reconciled net wires")
	}
}

func TestManualOracleAtLeastAsGoodAsOptimized(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := RunContext(context.Background(), tech, bm, Schematic, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	man, err := RunContext(context.Background(), tech, bm, Manual, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	// The oracle must land close to schematic (within a few percent
	// on gain).
	if d := math.Abs(sch.Metrics["gain_db"] - man.Metrics["gain_db"]); d > 2 {
		t.Errorf("manual gain deviation %.3g dB", d)
	}
}

func TestAssembleStructure(t *testing.T) {
	bm, err := circuits.OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContext(context.Background(), tech, bm, Conventional, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	nl := r.Netlist
	// Every MOS carries extraction parameters.
	for _, dn := range []string{"m1", "m2", "m3", "m4", "mt1", "mt2"} {
		d := nl.Device(dn)
		if d == nil {
			t.Fatalf("%s missing from assembled netlist", dn)
		}
		if !d.MOS.Extracted {
			t.Errorf("%s has no extraction values applied", dn)
		}
		if d.MOS.AD <= 0 {
			t.Errorf("%s has no junction area applied", dn)
		}
	}
	// The DP sources were split onto per-side nodes.
	if nl.Device("m1").Nets[2] == nl.Device("m2").Nets[2] {
		t.Error("DP sources still share a node — splice failed")
	}
	// Splice resistors exist.
	if nl.Device("dp0_rw_s") == nil || nl.Device("dp0_rw_s_a") == nil {
		t.Error("source chain resistors missing")
	}
	// It still simulates.
	if _, err := bm.Eval(context.Background(), tech, nl); err != nil {
		t.Fatalf("assembled netlist broken: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Schematic.String() != "schematic" || Optimized.String() != "optimized" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("out-of-range mode name empty")
	}
}
