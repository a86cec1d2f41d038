package spice

import (
	"context"
	"math"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/numeric"
)

func TestDCSweepLinearDivider(t *testing.T) {
	nl := circuit.NewBuilder("div").
		V("vin", "in", "0", 0).
		R("r1", "in", "out", 1e3).
		R("r2", "out", "0", 1e3).
		Netlist()
	e := mustEngine(t, nl)
	sw, err := e.DCSweep("vin", 0, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Values) != 11 {
		t.Fatalf("points = %d, want 11", len(sw.Values))
	}
	v := sw.Volt("out")
	for k, in := range sw.Values {
		if math.Abs(v[k]-in/2) > 1e-9 {
			t.Errorf("V(out) at %g = %g, want %g", in, v[k], in/2)
		}
	}
	// The source's DC value is restored afterwards.
	if nl.Device("vin").DC != 0 {
		t.Error("sweep did not restore the source value")
	}
}

// TestDCSweepLeavesNetlistUntouched: the sweep steps the engine's
// compiled source value, so the caller's netlist holds the original
// value at every solve, not only once the sweep is over.
func TestDCSweepLeavesNetlistUntouched(t *testing.T) {
	nl := circuit.NewBuilder("vtc").
		V("vdd", "vdd", "0", 0.8).
		V("vin", "g", "0", 0.25).
		MOS("mp", circuit.PMOS, "d", "g", "vdd", "vdd", 4, 2, 1, 14).
		MOS("mn", circuit.NMOS, "d", "g", "0", "0", 4, 2, 1, 14).
		Netlist()
	e := mustEngine(t, nl)
	vin := nl.Device("vin")
	solves, moved := 0, 0
	SetFactorHook(e, func(*numeric.Matrix) {
		solves++
		if v := vin.DC; v != 0.25 {
			if moved++; moved == 1 {
				t.Errorf("solve %d: the netlist's vin holds dc = %g during the sweep, want 0.25", solves, v)
			}
		}
	})
	sw, err := e.DCSweep("vin", 0, 0.8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if solves < len(sw.Values) {
		t.Fatalf("%d solves for %d sweep points", solves, len(sw.Values))
	}
	if moved > 0 {
		t.Errorf("%d of %d solves saw a swept value in the netlist", moved, solves)
	}
}

func TestDCSweepInverterVTC(t *testing.T) {
	nl := circuit.NewBuilder("vtc").
		V("vdd", "vdd", "0", 0.8).
		V("vin", "g", "0", 0).
		MOS("mp", circuit.PMOS, "d", "g", "vdd", "vdd", 4, 2, 1, 14).
		MOS("mn", circuit.NMOS, "d", "g", "0", "0", 4, 2, 1, 14).
		Netlist()
	e := mustEngine(t, nl)
	sw, err := e.DCSweep("vin", 0, 0.8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	v := sw.Volt("d")
	// Monotone decreasing transfer.
	for i := 1; i < len(v); i++ {
		if v[i] > v[i-1]+1e-6 {
			t.Fatalf("VTC not monotone at %g", sw.Values[i])
		}
	}
	// Switching threshold near mid-rail.
	vth, err := sw.SwitchingThreshold("d", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if vth < 0.25 || vth > 0.55 {
		t.Errorf("switching threshold = %g", vth)
	}
	// Transfer gain at the midpoint of the sweep is strongly negative.
	g, err := sw.TransferGain("d")
	if err != nil {
		t.Fatal(err)
	}
	if g > -1 {
		t.Errorf("midpoint transfer gain = %g, want well below -1", g)
	}
}

func TestDCSweepCurrentSource(t *testing.T) {
	nl := circuit.NewBuilder("isw").
		I("ib", "0", "out", 0).
		R("rl", "out", "0", 1e3).
		Netlist()
	e := mustEngine(t, nl)
	sw, err := e.DCSweep("ib", 0, 1e-3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	v := sw.Volt("out")
	last := len(v) - 1
	if math.Abs(v[last]-1.0) > 1e-9 {
		t.Errorf("V(out) at 1mA = %g, want 1", v[last])
	}
}

func TestDCSweepDescending(t *testing.T) {
	nl := circuit.NewBuilder("desc").
		V("vin", "a", "0", 0).
		R("r", "a", "0", 1e3).
		Netlist()
	e := mustEngine(t, nl)
	sw, err := e.DCSweep("vin", 1, 0, -0.25)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Values[0] != 1 || sw.Values[len(sw.Values)-1] != 0 {
		t.Errorf("descending sweep values = %v", sw.Values)
	}
	// Branch current of the swept source.
	iv, err := sw.Current("vin")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv[0]-(-1e-3)) > 1e-9 {
		t.Errorf("I(vin) at 1V = %g, want -1mA", iv[0])
	}
}

// TestDCSweepKeepsItsStop: 0.7/0.1 rounds to 6.999…, one short of
// the grid's last index, which must not cost the sweep its stop point.
func TestDCSweepKeepsItsStop(t *testing.T) {
	nl := circuit.NewBuilder("div").
		V("vin", "in", "0", 0).
		R("r1", "in", "out", 1e3).
		R("r2", "out", "0", 1e3).
		Netlist()
	for _, c := range []struct{ start, stop, step float64 }{{0, 0.7, 0.1}, {0.7, 0, -0.1}} {
		sw, err := mustEngine(t, nl).DCSweep("vin", c.start, c.stop, c.step)
		if err != nil {
			t.Fatal(err)
		}
		if n, last := len(sw.Values), sw.Values[len(sw.Values)-1]; n != 8 || last != c.stop {
			t.Errorf("sweep %g to %g by %g: %d points ending at %g, want 8 ending at %g",
				c.start, c.stop, c.step, n, last, c.stop)
		}
	}
}

func TestDCSweepValidation(t *testing.T) {
	nl := circuit.NewBuilder("v").V("v1", "a", "0", 0).R("r", "a", "0", 1).Netlist()
	e := mustEngine(t, nl)
	if _, err := e.DCSweep("v1", 0, 1, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := e.DCSweep("v1", 0, 1, -0.1); err == nil {
		t.Error("wrong-direction step accepted")
	}
	if _, err := e.DCSweep("nosuch", 0, 1, 0.1); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := e.DCSweep("r", 0, 1, 0.1); err == nil {
		t.Error("non-source sweep target accepted")
	}
}

func TestDCSweepViaDeck(t *testing.T) {
	src := `* vtc from deck
Vdd vdd 0 0.8
Vin g 0 0
Mp d g vdd vdd pmos nfin=4 nf=2 m=1
Mn d g 0 0 nmos nfin=4 nf=2 m=1
.dc vin 0 0.8 0.05
`
	res, _, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.DC == nil {
		t.Fatal("no DC sweep result")
	}
	if len(res.DC.Values) != 17 {
		t.Errorf("sweep points = %d, want 17", len(res.DC.Values))
	}
	v := res.DC.Volt("d")
	if v[0] < 0.75 || v[len(v)-1] > 0.05 {
		t.Errorf("VTC endpoints = %g, %g", v[0], v[len(v)-1])
	}
}

func TestDeviceOPReport(t *testing.T) {
	nl := circuit.NewBuilder("oprep").
		V("vdd", "vdd", "0", 0.8).
		V("vg", "g", "0", 0.5).
		MOS("msat", circuit.NMOS, "dsat", "g", "0", "0", 4, 2, 1, 14).
		R("rsat", "vdd", "dsat", 1e3).
		MOS("moff", circuit.NMOS, "doff", "0", "0", "0", 4, 2, 1, 14).
		R("roff", "vdd", "doff", 1e3).
		MOS("mp", circuit.PMOS, "dp", "0", "vdd", "vdd", 4, 2, 1, 14).
		R("rp", "dp", "0", 1e6).
		Netlist()
	e := mustEngine(t, nl)
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	devs := op.Devices()
	if len(devs) != 3 {
		t.Fatalf("devices = %d", len(devs))
	}
	byName := map[string]DeviceOP{}
	for _, d := range devs {
		byName[d.Name] = d
	}
	if r := byName["moff"].Region; r != "cutoff" {
		t.Errorf("moff region = %s", r)
	}
	// Conducting below threshold reads "subthreshold", not cutoff.
	hasSubth := false
	for _, d := range devs {
		if d.Region == "subthreshold" {
			hasSubth = true
		}
	}
	_ = hasSubth // msat may be in any conducting region at this bias
	if byName["moff"].Id > 1e-6 {
		t.Errorf("cutoff current = %g", byName["moff"].Id)
	}
	// msat with Vgs=0.5 on 1k: current high enough to drop the drain
	// but check region consistency with its actual Vds.
	m := byName["msat"]
	if m.Id <= 0 || m.Gm <= 0 {
		t.Errorf("msat Id=%g Gm=%g", m.Id, m.Gm)
	}
	if m.Region != "triode" && m.Region != "saturation" {
		t.Errorf("msat region = %s", m.Region)
	}
	// PMOS with grounded gate conducts (|Vgs| = 0.8): its drain pulls
	// high through the 1M load; region reported from mirrored values.
	p := byName["mp"]
	if p.Id >= 0 {
		t.Errorf("PMOS Id = %g, want negative", p.Id)
	}
	if p.Region == "cutoff" {
		t.Error("conducting PMOS reported cutoff")
	}
}
