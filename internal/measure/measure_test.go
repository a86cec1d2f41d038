package measure

import (
	"context"
	"math"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
	"primopt/internal/spice"
)

var tech = pdk.Default()

// idealAmp builds a VCCS-based inverting amplifier with gain -gm*R and
// a single pole at 1/(2πRC): a fully analytic reference for AC
// metrics.
func idealAmp(t *testing.T, gm, r, c float64) *spice.ACResult {
	t.Helper()
	nl := circuit.NewBuilder("ideal").
		VAC("vin", "in", "0", 0, 1).
		G("g1", "out", "0", "in", "0", gm). // current out of node out for +vin
		R("r1", "out", "0", r).
		C("c1", "out", "0", c).
		Netlist()
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := e.AC(1e3, 1e12, 20, op)
	if err != nil {
		t.Fatal(err)
	}
	return ac
}

func TestACMetricsSinglePole(t *testing.T) {
	gm, r, c := 10e-3, 1e3, 1e-12 // gain 10 (20 dB), f3db=159MHz, UGF ~ gain*f3db
	ac := idealAmp(t, gm, r, c)
	m, err := ACOf(ac, "out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Gain-10)/10 > 0.01 {
		t.Errorf("gain = %g, want 10", m.Gain)
	}
	if math.Abs(m.GainDB-20) > 0.1 {
		t.Errorf("gainDB = %g", m.GainDB)
	}
	f3 := 1 / (2 * math.Pi * r * c)
	if math.Abs(m.F3dB-f3)/f3 > 0.05 {
		t.Errorf("f3dB = %g, want %g", m.F3dB, f3)
	}
	// Single-pole: UGF = gain × f3dB; PM ≈ 90°.
	wantUGF := 10 * f3
	if math.Abs(m.UGF-wantUGF)/wantUGF > 0.05 {
		t.Errorf("UGF = %g, want %g", m.UGF, wantUGF)
	}
	// Single pole: lag at UGF is atan(UGF/f3dB), so PM = 180 - atan(10)
	// = 95.7° for a gain of 10.
	wantPM := 180 - math.Atan(m.UGF/f3)*180/math.Pi
	if math.Abs(m.PhaseMarginDeg-wantPM) > 3 {
		t.Errorf("PM = %g, want %g", m.PhaseMarginDeg, wantPM)
	}
}

func TestACMetricsTwoPole(t *testing.T) {
	// Cascade of two identical single-pole stages via VCVS buffering:
	// PM at UGF must drop well below 90.
	gm, r, c := 10e-3, 1e3, 1e-12
	nl := circuit.NewBuilder("twopole").
		VAC("vin", "in", "0", 0, 1).
		G("g1", "mid", "0", "in", "0", gm).
		R("r1", "mid", "0", r).
		C("c1", "mid", "0", c).
		G("g2", "out", "0", "mid", "0", gm).
		R("r2", "out", "0", r).
		C("c2", "out", "0", c).
		Netlist()
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	op, _ := e.OP()
	ac, err := e.AC(1e3, 1e12, 20, op)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ACOf(ac, "out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Gain-100)/100 > 0.02 {
		t.Errorf("two-stage gain = %g, want 100", m.Gain)
	}
	if m.PhaseMarginDeg > 40 || m.PhaseMarginDeg < 0 {
		t.Errorf("two-pole PM = %g, want small positive", m.PhaseMarginDeg)
	}
}

func TestACNoUGFWhenGainBelowOne(t *testing.T) {
	ac := idealAmp(t, 0.1e-3, 1e3, 1e-12) // gain 0.1
	m, err := ACOf(ac, "out")
	if err != nil {
		t.Fatal(err)
	}
	if m.UGF != 0 || m.PhaseMarginDeg != 0 {
		t.Errorf("sub-unity amp reported UGF %g PM %g", m.UGF, m.PhaseMarginDeg)
	}
	if m.F3dB == 0 {
		t.Error("F3dB should still be found")
	}
}

func rcStep(t *testing.T) *spice.TranResult {
	t.Helper()
	nl := circuit.NewBuilder("rcstep").
		VPulse("vin", "in", "0", 0, 1, 100e-12, 1e-12, 1e-12, 10e-9, 0).
		R("r1", "in", "out", 1e3).
		C("c1", "out", "0", 100e-15).
		Netlist()
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Tran(2e-12, 1e-9, spice.TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDelayRC(t *testing.T) {
	res := rcStep(t)
	// 50%-to-50% delay of an RC is ln(2)*RC = 69.3 ps.
	d, err := Delay(res, "in", 0.5, "rise", "out", 0.5, "rise")
	if err != nil {
		t.Fatal(err)
	}
	want := math.Ln2 * 1e3 * 100e-15
	if math.Abs(d-want)/want > 0.1 {
		t.Errorf("delay = %g, want %g", d, want)
	}
	if _, err := Delay(res, "in", 0.5, "rise", "out", 5.0, "rise"); err == nil {
		t.Error("impossible target accepted")
	}
	if _, err := Delay(res, "in", 5.0, "rise", "out", 0.5, "rise"); err == nil {
		t.Error("impossible trigger accepted")
	}
}

func TestCrossingTimeDirections(t *testing.T) {
	res := rcStep(t)
	tr, err := CrossingTime(res, "in", 0.5, "rise", 1, 0)
	if err != nil || math.Abs(tr-100.5e-12) > 2e-12 {
		t.Errorf("rise crossing = %g err=%v", tr, err)
	}
	if _, err := CrossingTime(res, "in", 0.5, "fall", 1, 0); err == nil {
		t.Error("nonexistent fall crossing found")
	}
	// cross direction matches the rise.
	tc, err := CrossingTime(res, "in", 0.5, "cross", 1, 0)
	if err != nil || math.Abs(tc-tr) > 1e-15 {
		t.Errorf("cross = %g vs rise %g", tc, tr)
	}
}

func TestOscFrequency(t *testing.T) {
	// A sine source is a perfect oscillator.
	nl := circuit.NewBuilder("osc").
		VSin("v1", "a", "0", 0.4, 0.3, 2e9).
		R("r1", "a", "0", 1e3).
		Netlist()
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Tran(10e-12, 5e-9, spice.TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := OscFrequency(res, "a", 0.4, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2e9)/2e9 > 0.01 {
		t.Errorf("osc freq = %g, want 2 GHz", f)
	}
	// DC net: not oscillating.
	nl2 := circuit.NewBuilder("dc").V("v1", "a", "0", 0.4).R("r1", "a", "0", 1e3).Netlist()
	e2, _ := spice.New(context.Background(), tech, nl2)
	res2, err := e2.Tran(10e-12, 1e-9, spice.TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OscFrequency(res2, "a", 0.4, 0); err == nil {
		t.Error("DC reported as oscillating")
	}
}

func TestAvgSupplyPower(t *testing.T) {
	// 0.8 V supply across 800 Ω: P = 0.8 mW constant.
	nl := circuit.NewBuilder("pwr").
		V("vdd", "vdd", "0", 0.8).
		R("r1", "vdd", "0", 800).
		Netlist()
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Tran(1e-12, 100e-12, spice.TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := AvgSupplyPower(res, "vdd", 0.8, 0, 100e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.8e-3)/0.8e-3 > 1e-6 {
		t.Errorf("power = %g, want 0.8 mW", p)
	}
	if _, err := AvgSupplyPower(res, "vdd", 0.8, 1, 2); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := AvgSupplyPower(res, "nosuch", 0.8, 0, 1); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestSupplyCurrentSign(t *testing.T) {
	nl := circuit.NewBuilder("sc").
		V("vdd", "vdd", "0", 0.8).
		R("r1", "vdd", "0", 800).
		Netlist()
	e, _ := spice.New(context.Background(), tech, nl)
	op, err := e.OP()
	if err != nil {
		t.Fatal(err)
	}
	i, err := SupplyCurrent(op, "vdd")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i-1e-3) > 1e-9 {
		t.Errorf("supply current = %g, want +1 mA", i)
	}
}

func TestSettledValueAndPeakToPeak(t *testing.T) {
	res := rcStep(t)
	// Peak-to-peak of input is the full swing.
	if pp := PeakToPeak(res, "in", 0); math.Abs(pp-1) > 0.01 {
		t.Errorf("pp = %g", pp)
	}
	// After the edge, input is flat.
	if pp := PeakToPeak(res, "in", 200e-12); pp > 0.01 {
		t.Errorf("tail pp = %g", pp)
	}
	if pp := PeakToPeak(res, "in", 2); pp != 0 {
		t.Errorf("empty-window pp = %g", pp)
	}
}

func TestUnwrapPhase(t *testing.T) {
	ph := []float64{170, -175, -160, 175}
	unwrapPhase(ph)
	// After unwrap: continuous descent or ascent without 300° jumps.
	for i := 1; i < len(ph); i++ {
		if math.Abs(ph[i]-ph[i-1]) > 180 {
			t.Errorf("jump remains: %v", ph)
		}
	}
}

func TestACOfRejectsShortSweep(t *testing.T) {
	// Degenerate sweeps are rejected rather than mis-measured.
	nl := circuit.NewBuilder("short").
		VAC("v", "a", "0", 0, 1).
		R("r", "a", "0", 1e3).
		Netlist()
	e, err := spice.New(context.Background(), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	op, _ := e.OP()
	ac, err := e.AC(1e6, 1e6, 1, op)
	if err != nil {
		t.Fatal(err)
	}
	// 2 points still work; build a 1-point result artificially.
	ac.Freqs = ac.Freqs[:1]
	ac.X = ac.X[:1]
	if _, err := ACOf(ac, "a"); err == nil {
		t.Error("1-point sweep accepted")
	}
}

func TestOscFrequencyRejectsTooFewCrossings(t *testing.T) {
	// A single pulse has one rising crossing: not an oscillation.
	nl := circuit.NewBuilder("pulse").
		VPulse("v", "a", "0", 0, 1, 100e-12, 10e-12, 10e-12, 10e-9, 0).
		R("r", "a", "0", 1e3).
		Netlist()
	e, _ := spice.New(context.Background(), tech, nl)
	res, err := e.Tran(10e-12, 1e-9, spice.TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OscFrequency(res, "a", 0.5, 0); err == nil {
		t.Error("single edge reported as oscillation")
	}
}
