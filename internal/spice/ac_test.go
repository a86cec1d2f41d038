package spice

import (
	"context"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/device"
)

func TestRCLowPass(t *testing.T) {
	r, c := 1e3, 1e-12 // fc = 159.2 MHz
	fc := 1 / (2 * math.Pi * r * c)
	nl := circuit.NewBuilder("rc").
		VAC("vin", "in", "0", 0, 1).
		R("r1", "in", "out", r).
		C("c1", "out", "0", c).
		Netlist()
	e := mustEngine(t, nl)
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := e.AC(fc/100, fc*100, 50, op)
	if err != nil {
		t.Fatal(err)
	}
	// At the lowest frequency the gain is ~1.
	if m := cmplx.Abs(ac.Volt("out", 0)); math.Abs(m-1) > 0.01 {
		t.Errorf("low-f gain = %g, want 1", m)
	}
	// At fc: magnitude 1/sqrt(2), phase -45 degrees.
	ki := nearestFreq(ac.Freqs, fc)
	m := cmplx.Abs(ac.Volt("out", ki))
	if math.Abs(m-1/math.Sqrt2) > 0.02 {
		t.Errorf("gain at fc = %g, want %g", m, 1/math.Sqrt2)
	}
	ph := ac.PhaseDeg("out", ki)
	if math.Abs(ph+45) > 2 {
		t.Errorf("phase at fc = %g, want -45", ph)
	}
	// At 100*fc: ~ -40 dB.
	last := len(ac.Freqs) - 1
	if db := ac.MagDB("out", last); math.Abs(db+40) > 0.5 {
		t.Errorf("gain at 100fc = %g dB, want -40", db)
	}
}

func nearestFreq(freqs []float64, f float64) int {
	best, bi := math.Inf(1), 0
	for i, x := range freqs {
		if d := math.Abs(math.Log(x / f)); d < best {
			best, bi = d, i
		}
	}
	return bi
}

func TestRLHighPass(t *testing.T) {
	// Series R, shunt L: |V(out)| rises with f toward... actually
	// V_L = jwL/(R + jwL): high-pass with fc = R/(2πL).
	r, l := 1e3, 1e-6
	fc := r / (2 * math.Pi * l)
	nl := circuit.NewBuilder("rl").
		VAC("vin", "in", "0", 0, 1).
		R("r1", "in", "out", r).
		L("l1", "out", "0", l).
		Netlist()
	e := mustEngine(t, nl)
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := e.AC(fc/100, fc*100, 30, op)
	if err != nil {
		t.Fatal(err)
	}
	if m := cmplx.Abs(ac.Volt("out", 0)); m > 0.02 {
		t.Errorf("low-f inductor voltage = %g, want ~0", m)
	}
	last := len(ac.Freqs) - 1
	if m := cmplx.Abs(ac.Volt("out", last)); math.Abs(m-1) > 0.01 {
		t.Errorf("high-f inductor voltage = %g, want ~1", m)
	}
	ki := nearestFreq(ac.Freqs, fc)
	if m := cmplx.Abs(ac.Volt("out", ki)); math.Abs(m-1/math.Sqrt2) > 0.03 {
		t.Errorf("|H(fc)| = %g, want %g", m, 1/math.Sqrt2)
	}
}

func TestCommonSourceGainMatchesGmRout(t *testing.T) {
	// Resistor-loaded common source: low-frequency gain = -gm*(R||ro).
	nl := circuit.NewBuilder("cs")
	nl.V("vdd", "vdd", "0", 0.8).
		VAC("vin", "g", "0", 0.45, 1).
		R("rl", "vdd", "d", 5e3).
		MOS("m1", circuit.NMOS, "d", "g", "0", "0", 4, 2, 1, 14)
	e := mustEngine(t, nl.Netlist())
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	st := device.EvalMOS(tech, nl.Netlist().Device("m1"),
		op.Volt("d"), 0.45, 0, 0)
	ro := 1 / st.Gds()
	want := st.Gm() * (5e3 * ro / (5e3 + ro))
	ac, err := e.AC(1e3, 1e6, 10, op)
	if err != nil {
		t.Fatal(err)
	}
	got := cmplx.Abs(ac.Volt("d", 0))
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("CS gain = %g, want %g", got, want)
	}
	// Inverting stage: phase ~180 at low f.
	if ph := math.Abs(ac.PhaseDeg("d", 0)); ph < 175 {
		t.Errorf("CS phase = %g, want ~180", ph)
	}
}

func TestACCurrentThroughSource(t *testing.T) {
	// AC current source convention check via a 1 V AC source across a
	// resistor: I(v1) = -1/R (source delivers).
	nl := circuit.NewBuilder("i").
		VAC("v1", "a", "0", 0, 1).
		R("r1", "a", "0", 2e3).
		Netlist()
	e := mustEngine(t, nl)
	op, _ := e.OP()
	ac, err := e.AC(1e3, 1e4, 5, op)
	if err != nil {
		t.Fatal(err)
	}
	i, err := ac.Current("v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(i)+0.5e-3) > 1e-9 || math.Abs(imag(i)) > 1e-9 {
		t.Errorf("I(v1) = %v, want -0.5mA", i)
	}
	if _, err := ac.Current("r1", 0); err == nil {
		t.Error("resistor AC current lookup should fail")
	}
}

func TestACISourceAndPhase(t *testing.T) {
	// AC current source with 90-degree phase into a resistor.
	nl := circuit.New("ip")
	d := &circuit.Device{Name: "i1", Type: circuit.ISource, Nets: []string{"0", "out"}}
	d.ACMag = 1e-3
	d.ACPhase = 90
	nl.MustAdd(d)
	r := &circuit.Device{Name: "r1", Type: circuit.Resistor, Nets: []string{"out", "0"}}
	r.Value = 1e3
	nl.MustAdd(r)
	e := mustEngine(t, nl)
	op, _ := e.OP()
	ac, err := e.AC(1e3, 1e4, 5, op)
	if err != nil {
		t.Fatal(err)
	}
	v := ac.Volt("out", 0)
	if math.Abs(real(v)) > 1e-9 || math.Abs(imag(v)-1.0) > 1e-9 {
		t.Errorf("V(out) = %v, want 0+1i", v)
	}
}

func TestACRangeValidation(t *testing.T) {
	nl := circuit.NewBuilder("x").VAC("v", "a", "0", 0, 1).R("r", "a", "0", 1).Netlist()
	e := mustEngine(t, nl)
	op, _ := e.OP()
	if _, err := e.AC(-1, 10, 10, op); err == nil {
		t.Error("negative fstart accepted")
	}
	if _, err := e.AC(1e6, 1e3, 10, op); err == nil {
		t.Error("reversed range accepted")
	}
	// Degenerate single-frequency range still yields >= 2 points.
	ac, err := e.AC(1e6, 1e6, 10, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(ac.Freqs) < 2 {
		t.Errorf("points = %d", len(ac.Freqs))
	}
	// pointsPerDecade < 1 defaults sanely.
	if _, err := e.AC(1e3, 1e6, 0, op); err != nil {
		t.Error(err)
	}
}

// TestACLinGrid checks .ac lin's grid: points linearly spaced from
// fstart to fstop inclusive, one point solving fstart alone, the same
// range check as .ac dec, and no default for a missing point count.
func TestACLinGrid(t *testing.T) {
	r, c := 1e3, 1e-9
	nl := circuit.NewBuilder("rc").VAC("vin", "in", "0", 0, 1).R("r1", "in", "out", r).C("c1", "out", "0", c).Netlist()
	e := mustEngine(t, nl)
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := e.ACLin(1e3, 5e3, 5, op)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1e3, 2e3, 3e3, 4e3, 5e3}; !slices.Equal(ac.Freqs, want) {
		t.Errorf("lin 5 1e3 5e3 solved %v, want %v", ac.Freqs, want)
	}
	spot, err := e.ACLin(1e6, 1e6, 1, op)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spot.Freqs, []float64{1e6}) || len(spot.X) != 1 {
		t.Fatalf("lin 1 1e6 1e6 solved %v", spot.Freqs)
	}
	want := 1 / complex(1, 2*math.Pi*1e6*r*c)
	if got := spot.Volt("out", 0); cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("V(out) at 1 MHz = %v, want %v", got, want)
	}
	for _, bad := range []struct {
		fstart, fstop float64
		points        int
	}{{-1, 10, 2}, {1e6, 1e3, 2}, {1e3, 1e6, 0}, {1e3, 1e6, -3}} {
		if _, err := e.ACLin(bad.fstart, bad.fstop, bad.points, op); err == nil {
			t.Errorf("lin %d %g %g accepted", bad.points, bad.fstart, bad.fstop)
		}
	}
}

// TestACFindReadsInsideItsSweep checks that a find reads only where its
// sweep solved: on a spot sweep at 1 MHz, at=2e6 is an error rather
// than the one sample, and at either end of a dec sweep a find reads
// that end sample bit for bit, at a start frequency that 10^log10
// does not reproduce too.
func TestACFindReadsInsideItsSweep(t *testing.T) {
	ctx := context.Background()
	const rc = "* rc\nV1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n"
	if _, _, err := RunSourceCtx(ctx, tech, rc+".ac lin 1 1e6 1e6\n.measure ac x find vm(out) at=2e6\n"); err == nil {
		t.Error("a find at 2 MHz read a 1 MHz spot sweep")
	}
	res, _, err := RunSourceCtx(ctx, tech, rc+".ac lin 1 1e6 1e6\n.measure ac x find vm(out) at=1e6\n")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Measures["x"], cmplx.Abs(res.AC.Volt("out", 0)); got != want {
		t.Errorf("find at the spot frequency read %g, want %g", got, want)
	}

	const dec = ".ac dec 5 2e3 1e6\n"
	for _, at := range []string{"1.9e3", "2e6"} {
		if _, _, err := RunSourceCtx(ctx, tech, rc+dec+".measure ac x find vr(out) at="+at+"\n"); err == nil {
			t.Errorf("a find at %s read the 2e3-1e6 sweep", at)
		}
	}
	res, _, err = RunSourceCtx(ctx, tech, rc+dec+".measure ac lo find vr(out) at=2e3\n.measure ac hi find vr(out) at=1e6\n")
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.AC.Freqs) - 1
	if got, want := res.Measures["lo"], real(res.AC.Volt("out", 0)); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("find at fstart read %v, want the first sample %v", got, want)
	}
	if got, want := res.Measures["hi"], real(res.AC.Volt("out", last)); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("find at fstop read %v, want the last sample %v", got, want)
	}
}

func TestMOSCapRollsOffCSAmp(t *testing.T) {
	// The common-source stage must show a finite bandwidth due to its
	// own device capacitance plus an explicit load.
	nl := circuit.NewBuilder("bw")
	nl.V("vdd", "vdd", "0", 0.8).
		VAC("vin", "g", "0", 0.4, 1).
		R("rl", "vdd", "d", 5e3).
		C("cl", "d", "0", 20e-15).
		MOS("m1", circuit.NMOS, "d", "g", "0", "0", 4, 1, 1, 14)
	e := mustEngine(t, nl.Netlist())
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := e.AC(1e6, 1e11, 10, op)
	if err != nil {
		t.Fatal(err)
	}
	lo := ac.MagDB("d", 0)
	hi := ac.MagDB("d", len(ac.Freqs)-1)
	if hi > lo-20 {
		t.Errorf("no rolloff: %g dB at low f vs %g dB at high f", lo, hi)
	}
}
