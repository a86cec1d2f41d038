package spice

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/device"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

func mustEngine(t *testing.T, nl *circuit.Netlist) *Engine {
	t.Helper()
	e, err := New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustOP(t *testing.T, nl *circuit.Netlist) (*Engine, *OPResult) {
	t.Helper()
	e := mustEngine(t, nl)
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	return e, op
}

func TestResistorDivider(t *testing.T) {
	nl := circuit.NewBuilder("div").
		V("v1", "in", "0", 1.0).
		R("r1", "in", "mid", 1e3).
		R("r2", "mid", "0", 1e3).
		Netlist()
	_, op := mustOP(t, nl)
	if v := op.Volt("mid"); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("divider mid = %g, want 0.5", v)
	}
	// SPICE convention: source delivering current reads negative.
	i, err := op.Current("v1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i-(-0.5e-3)) > 1e-9 {
		t.Errorf("I(v1) = %g, want -0.5mA", i)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	nl := circuit.NewBuilder("ir").
		I("i1", "0", "out", 1e-3). // pushes 1 mA into node out
		R("r1", "out", "0", 2e3).
		Netlist()
	_, op := mustOP(t, nl)
	if v := op.Volt("out"); math.Abs(v-2.0) > 1e-9 {
		t.Errorf("V(out) = %g, want 2", v)
	}
}

func TestVCVSAndVCCS(t *testing.T) {
	nl := circuit.NewBuilder("ctl").
		V("vin", "a", "0", 0.1).
		E("e1", "b", "0", "a", "0", 10).   // b = 10 * a = 1 V
		G("g1", "0", "c", "a", "0", 1e-3). // 0.1 mA into c
		R("rc", "c", "0", 1e4).            // c = 1 V
		R("rb", "b", "0", 1e3).
		Netlist()
	_, op := mustOP(t, nl)
	if v := op.Volt("b"); math.Abs(v-1.0) > 1e-9 {
		t.Errorf("VCVS out = %g, want 1", v)
	}
	if v := op.Volt("c"); math.Abs(v-1.0) > 1e-9 {
		t.Errorf("VCCS out = %g, want 1", v)
	}
}

func TestInductorIsDCShort(t *testing.T) {
	nl := circuit.NewBuilder("rl").
		V("v1", "in", "0", 1.0).
		R("r1", "in", "mid", 1e3).
		L("l1", "mid", "0", 1e-9).
		Netlist()
	_, op := mustOP(t, nl)
	if v := op.Volt("mid"); math.Abs(v) > 1e-9 {
		t.Errorf("inductor DC drop = %g, want 0", v)
	}
	i, err := op.Current("l1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i-1e-3) > 1e-9 {
		t.Errorf("I(l1) = %g, want 1mA", i)
	}
}

func TestCapacitorIsDCOpen(t *testing.T) {
	nl := circuit.NewBuilder("rc").
		V("v1", "in", "0", 1.0).
		R("r1", "in", "out", 1e3).
		C("c1", "out", "0", 1e-12).
		R("rleak", "out", "0", 1e6). // keeps node non-floating
		Netlist()
	_, op := mustOP(t, nl)
	want := 1e6 / (1e6 + 1e3)
	if v := op.Volt("out"); math.Abs(v-want) > 1e-6 {
		t.Errorf("V(out) = %g, want %g", v, want)
	}
}

func TestDiodeConnectedNMOS(t *testing.T) {
	// Current source pulls 100 µA through a diode-connected NMOS: the
	// gate-source voltage must settle above ~Vth and below Vdd.
	nl := circuit.NewBuilder("diode")
	nl.MOS("m1", circuit.NMOS, "d", "d", "0", "0", 8, 4, 1, 14).
		I("ib", "vdd", "d", 100e-6).
		V("vdd", "vdd", "0", 0.8)
	_, op := mustOP(t, nl.Netlist())
	v := op.Volt("d")
	if v < 0.2 || v > 0.6 {
		t.Errorf("diode Vgs = %g, want 0.2..0.6", v)
	}
	// The device current equals the bias current.
	d := nl.Netlist().Device("m1")
	st := device.EvalMOS(tech, d, v, v, 0, 0)
	if math.Abs(st.Ids-100e-6)/100e-6 > 1e-3 {
		t.Errorf("diode current = %g, want 100µA", st.Ids)
	}
}

func TestNMOSInverterTransfer(t *testing.T) {
	// Resistor-load inverter: output high when input low and vice
	// versa; monotone decreasing transfer.
	build := func(vin float64) *circuit.Netlist {
		return circuit.NewBuilder("inv").
			V("vdd", "vdd", "0", 0.8).
			V("vin", "g", "0", vin).
			R("rl", "vdd", "d", 10e3).
			MOS("m1", circuit.NMOS, "d", "g", "0", "0", 4, 2, 1, 14).
			Netlist()
	}
	prev := math.Inf(1)
	for _, vin := range []float64{0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8} {
		_, op := mustOP(t, build(vin))
		v := op.Volt("d")
		if v > prev+1e-6 {
			t.Errorf("transfer not monotone at vin=%g: %g > %g", vin, v, prev)
		}
		prev = v
	}
	_, opLo := mustOP(t, build(0))
	if v := opLo.Volt("d"); v < 0.75 {
		t.Errorf("output with input low = %g, want ~0.8", v)
	}
	_, opHi := mustOP(t, build(0.8))
	if v := opHi.Volt("d"); v > 0.2 {
		t.Errorf("output with input high = %g, want low", v)
	}
}

// cmosInverter is a CMOS inverter on a 0.8 V supply, its input source
// at vin.
func cmosInverter(vin float64) *circuit.Netlist {
	return circuit.NewBuilder("cmosinv").
		V("vdd", "vdd", "0", 0.8).
		V("vin", "g", "0", vin).
		MOS("mp", circuit.PMOS, "d", "g", "vdd", "vdd", 4, 2, 1, 14).
		MOS("mn", circuit.NMOS, "d", "g", "0", "0", 4, 2, 1, 14).
		Netlist()
}

func TestCMOSInverterOP(t *testing.T) {
	_, op := mustOP(t, cmosInverter(0))
	if v := op.Volt("d"); v < 0.75 {
		t.Errorf("CMOS inverter out(0) = %g, want ~vdd", v)
	}
	_, op = mustOP(t, cmosInverter(0.8))
	if v := op.Volt("d"); v > 0.05 {
		t.Errorf("CMOS inverter out(vdd) = %g, want ~0", v)
	}
}

func TestFiveTransistorOTAOP(t *testing.T) {
	// A real 5T OTA biased via a current mirror: the tail current
	// splits evenly between the matched branches at equal inputs.
	nl := circuit.NewBuilder("ota")
	nl.V("vdd", "vdd", "0", 0.8).
		V("vcm1", "inp", "0", 0.45).
		V("vcm2", "inn", "0", 0.45).
		I("ibias", "vdd", "bias", 50e-6).
		MOS("mtail_ref", circuit.NMOS, "bias", "bias", "0", "0", 4, 4, 1, 14).
		MOS("mtail", circuit.NMOS, "tail", "bias", "0", "0", 4, 4, 2, 14).
		MOS("m1", circuit.NMOS, "o1", "inp", "tail", "0", 8, 4, 1, 14).
		MOS("m2", circuit.NMOS, "out", "inn", "tail", "0", 8, 4, 1, 14).
		MOS("m3", circuit.PMOS, "o1", "o1", "vdd", "vdd", 8, 4, 1, 14).
		MOS("m4", circuit.PMOS, "out", "o1", "vdd", "vdd", 8, 4, 1, 14)
	_, op := mustOP(t, nl.Netlist())
	// Mirror doubles the reference: tail current ~100 µA, so each
	// branch carries ~50 µA; both outputs sit at sane levels.
	vo1, vout := op.Volt("o1"), op.Volt("out")
	if vo1 < 0.3 || vo1 > 0.75 {
		t.Errorf("V(o1) = %g", vo1)
	}
	if vout < 0.2 || vout > 0.79 {
		t.Errorf("V(out) = %g", vout)
	}
	// Symmetric inputs: outputs near-equal (mirror forces balance).
	if math.Abs(vo1-vout) > 0.15 {
		t.Errorf("outputs unbalanced: %g vs %g", vo1, vout)
	}
	if v := op.Volt("tail"); v < 0.02 || v > 0.4 {
		t.Errorf("tail voltage = %g", v)
	}
}

func TestEngineRejectsBadDevices(t *testing.T) {
	nl := circuit.New("bad")
	d := &circuit.Device{Name: "r1", Type: circuit.Resistor, Nets: []string{"a", "0"}}
	d.Value = -5
	nl.MustAdd(d)
	if _, err := New(context.Background(), tech, nl); err == nil {
		t.Error("negative resistor accepted")
	}
	if _, err := New(context.Background(), tech, circuit.New("empty")); err == nil {
		t.Error("empty circuit accepted")
	}
}

func TestFloatingNodeHandled(t *testing.T) {
	// A gate driven only through a capacitor is floating in DC; gmin
	// stepping must still find an OP rather than erroring out.
	nl := circuit.NewBuilder("float").
		V("vdd", "vdd", "0", 0.8).
		C("cc", "vdd", "g", 1e-15).
		MOS("m1", circuit.NMOS, "d", "g", "0", "0", 2, 1, 1, 14).
		R("rd", "vdd", "d", 10e3).
		Netlist()
	_, err := New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, nl)
	if _, err := e.OP(); err != nil {
		t.Fatalf("floating-gate OP failed: %v", err)
	}
}

func TestNodeAndBranchIndex(t *testing.T) {
	nl := circuit.NewBuilder("ix").
		V("v1", "a", "0", 1).
		R("r1", "a", "b", 1e3).
		R("r2", "b", "0", 1e3).
		Netlist()
	e := mustEngine(t, nl)
	if i, ok := e.NodeIndex("GND"); !ok || i != -1 {
		t.Error("ground index wrong")
	}
	if _, ok := e.NodeIndex("nosuch"); ok {
		t.Error("phantom node")
	}
	if _, ok := e.BranchIndex("v1"); !ok {
		t.Error("vsource branch missing")
	}
	if _, ok := e.BranchIndex("r1"); ok {
		t.Error("resistor should have no branch")
	}
	if e.NumUnknowns() != 3 { // a, b, branch(v1)
		t.Errorf("unknowns = %d, want 3", e.NumUnknowns())
	}
}

// A source that is not finite gives no operating point. The Newton
// loop's convergence and residual tests compare against a tolerance,
// and a comparison with NaN is false, so each is written to fail on a
// value that is not a number instead of passing it as converged. New
// rejects such a value in a netlist (TestNewRejectsNonFiniteValues),
// so the value goes into the compiled source, as a sweep steps it.
func TestOPRejectsNonFiniteSources(t *testing.T) {
	builds := []struct {
		name  string
		build func(v float64) *circuit.Netlist
	}{
		{"divider", dividerNetlist},
		{"inverter", cmosInverter},
	}
	for _, b := range builds {
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			e := mustEngine(t, b.build(0))
			e.sourceNamed("vin").dc = v
			op, err := e.OP()
			if err == nil {
				t.Errorf("%s with a %g V source: OP = %v, want an error", b.name, v, op.X)
			}
		}
	}
}

// TestNewRejectsNonFiniteValues sets each value of each element kind,
// one at a time, to NaN, +Inf and -Inf, and requires New to fail with
// an error that names the device and the value, before any analysis.
func TestNewRejectsNonFiniteValues(t *testing.T) {
	build := func() *circuit.Netlist {
		nl := circuit.NewBuilder("all").
			VPulse("vp", "in", "0", 0, 0.8, 1e-9, 1e-11, 1e-11, 1e-9, 2e-9).
			VAC("va", "a", "0", 0.4, 1).
			I("i1", "0", "a", 1e-6).
			R("r1", "in", "a", 1e3).
			C("c1", "a", "0", 1e-15).
			L("l1", "a", "b", 1e-9).
			R("r2", "b", "0", 1e3).
			E("e1", "e", "0", "a", "0", 2).
			G("g1", "e", "0", "a", "0", 1e-3).
			MOS("m1", circuit.NMOS, "e", "a", "0", "0", 4, 2, 1, 14).
			MOS("m2", circuit.NMOS, "e", "b", "0", "0", 4, 2, 1, 14).
			Netlist()
		m := &nl.Device("m2").MOS
		m.Extracted = true
		m.DVth, m.DMu, m.AD, m.AS, m.PD, m.PS = 0.01, 0.98, 1e4, 1e4, 1e3, 1e3
		return nl
	}
	if _, err := New(context.Background(), tech, build()); err != nil {
		t.Fatal(err)
	}
	sites := []struct {
		dev string
		at  func(d *circuit.Device) *float64
	}{
		{"r1", func(d *circuit.Device) *float64 { return &d.Value }},
		{"c1", func(d *circuit.Device) *float64 { return &d.Value }},
		{"l1", func(d *circuit.Device) *float64 { return &d.Value }},
		{"e1", func(d *circuit.Device) *float64 { return &d.Value }},
		{"g1", func(d *circuit.Device) *float64 { return &d.Value }},
		{"i1", func(d *circuit.Device) *float64 { return &d.DC }},
		{"va", func(d *circuit.Device) *float64 { return &d.ACMag }},
		{"va", func(d *circuit.Device) *float64 { return &d.ACPhase }},
		{"vp", func(d *circuit.Device) *float64 { return &d.Wave.Args[1] }},
		{"m1", func(d *circuit.Device) *float64 { return &d.MOS.NFin }},
		{"m1", func(d *circuit.Device) *float64 { return &d.MOS.L }},
		{"m2", func(d *circuit.Device) *float64 { return &d.MOS.DVth }},
		{"m2", func(d *circuit.Device) *float64 { return &d.MOS.PS }},
	}
	for i, site := range sites {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			nl := build()
			*site.at(nl.Device(site.dev)) = v
			_, err := New(context.Background(), tech, nl)
			if err == nil {
				t.Errorf("site %d, %s = %g: New accepted it", i, site.dev, v)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, " "+site.dev+":") || !strings.Contains(msg, fmt.Sprint(v)+" is not finite") {
				t.Errorf("site %d, %s = %g: error %q does not name the device and the value", i, site.dev, v, msg)
			}
		}
	}
}

// Regression test for the off-by-one in the Newton convergence check:
// `conv && iter > 0` rejected a solve that converged on its very first
// iteration, forcing every linear DC solve to pay a second stamp,
// factor, and solve for nothing. A resistor divider is exact after one
// Newton step, so the iteration counter must read exactly 1.
func TestNewtonConvergesOnFirstIteration(t *testing.T) {
	ctx, tr := traceCtx()
	nl := circuit.NewBuilder("div").
		V("v1", "in", "0", 1.0).
		R("r1", "in", "mid", 1e3).
		R("r2", "mid", "0", 1e3).
		Netlist()
	e, err := New(ctx, tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.Volt("mid"); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("divider mid = %g, want 0.5", v)
	}
	if n := tr.Counter("spice.dc.newton_iters").Value(); n != 1 {
		t.Errorf("spice.dc.newton_iters = %d, want 1 (iteration-0 convergence rejected)", n)
	}
}

// The steady-state Newton solve path must not allocate: all scratch
// (Jacobian, rhs, iterate, workspace) is owned by the engine's Newton
// system and reused across calls. Guarded with a MOS circuit so the
// nonlinear stamp and the device evaluation are on the measured path,
// and from a converged iterate so each run is exactly one (iteration-0
// convergent) iteration of the Newton loop the transient step shares —
// the shape of every transient step after the first.
func TestNewtonDCSteadyStateZeroAlloc(t *testing.T) {
	e, op := mustOP(t, cmosInverter(0.4))
	x := make([]float64, len(op.X))
	copy(x, op.X)
	// Warm up once so lazily built scratch is charged outside the
	// measurement.
	if err := e.newtonDC(x, 1e-12, 1.0); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := e.newtonDC(x, 1e-12, 1.0); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("newtonDC allocates %v per steady-state solve, want 0", a)
	}
}

// TestBypassResidualFormsAgree checks the identity the two residual
// forms of a bypassed Newton iteration rest on: with J and rhs stamped
// at the iterate, the Norton terms cancel from J·x − rhs, leaving the
// linear part A·x − b plus each transistor's channel current and gmin
// shunt currents (addMOSResidual). At biases away from the solution,
// and at the smallest and largest gmin the operating point stamps, the
// forms must agree to within 1e-12 of each row's largest term.
func TestBypassResidualFormsAgree(t *testing.T) {
	// OP leaves the operating point's system holding the sources at
	// full scale.
	e, op := mustOP(t, cmosInverter(0.4))
	s := e.dc
	d, _ := e.NodeIndex("d")
	g, _ := e.NodeIndex("g")
	vdd, _ := e.NodeIndex("vdd")
	var biases [][]float64
	for _, set := range []map[int]float64{{d: 0.1}, {d: 0.7, g: 0.25}, {d: 0.35, g: 0.55, vdd: 0.75}} {
		x := append([]float64(nil), op.X...)
		for i, v := range set {
			x[i] = v
		}
		biases = append(biases, x)
	}
	for _, gmin := range []float64{1e-12, 1e-2} {
		s.gmin = gmin
		for _, x := range biases {
			s.stampResidual = true
			s.residual(e, x)
			stamped := append([]float64(nil), s.resid...)
			s.stampResidual = false
			s.residual(e, x)
			scale := residualTermScale(e, s, x)
			for i := range stamped {
				if diff := math.Abs(stamped[i] - s.resid[i]); !(diff <= 1e-12*scale[i]) {
					t.Errorf("gmin %g, x = %v: row %d stamped %g, device currents %g (largest term %g)",
						gmin, x, i, stamped[i], s.resid[i], scale[i])
				}
			}
		}
	}
}

// residualTermScale returns, for each row of s's residual at x, the
// largest magnitude among the terms either form sums: the sources, the
// linear stamps times x, and each transistor's conductances times its
// terminal voltages, its channel current and its gmin shunt currents.
func residualTermScale(e *Engine, s *newtonSystem, x []float64) []float64 {
	n := e.NumUnknowns()
	scale := make([]float64, n)
	bump := func(i int, v float64) {
		if i >= 0 && math.Abs(v) > scale[i] {
			scale[i] = math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		bump(i, s.b[i])
		for j := 0; j < n; j++ {
			bump(i, s.A.At(i, j)*x[j])
		}
	}
	for mi, nodes := range e.mosNode {
		var v [4]float64
		for c, k := range nodes {
			v[c] = volt(x, k)
		}
		st := e.mosCtx[mi].Eval(v[0], v[1], v[2], v[3])
		gs := [4]float64{st.GdVd, st.GdVg, st.GdVs, st.GdVb}
		for c, k := range nodes {
			bump(nodes[0], gs[c]*v[c])
			bump(nodes[2], gs[c]*v[c])
			bump(k, math.Max(s.gmin, 1e-12)*v[c])
		}
		bump(nodes[0], st.Ids)
		bump(nodes[2], st.Ids)
	}
	return scale
}
