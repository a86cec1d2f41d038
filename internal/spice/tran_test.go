package spice

import (
	"math"
	"testing"

	"primopt/internal/circuit"
)

func TestRCChargingCurve(t *testing.T) {
	// Step into RC: v(t) = 1 - exp(-t/RC), RC = 1 ns.
	r, c := 1e3, 1e-12
	tau := r * c
	nl := circuit.NewBuilder("rcstep").
		VPulse("vin", "in", "0", 0, 1, 0, 1e-15, 1e-15, 1, 0).
		R("r1", "in", "out", r).
		C("c1", "out", "0", c).
		Netlist()
	e := mustEngine(t, nl)
	res, err := e.Tran(tau/100, 5*tau, TranOpts{UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range res.Times {
		if tm == 0 {
			continue
		}
		want := 1 - math.Exp(-tm/tau)
		got := res.VoltAt("out", k)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("v(%.3g) = %g, want %g", tm, got, want)
		}
	}
}

func TestRCDischargeWithIC(t *testing.T) {
	// Pre-charged cap discharging through R from 1 V.
	r, c := 1e3, 1e-12
	tau := r * c
	nl := circuit.NewBuilder("rcdis").
		R("r1", "out", "0", r).
		C("c1", "out", "0", c).
		R("rbig", "out", "0", 1e12). // keeps matrix non-singular at DC
		Netlist()
	e := mustEngine(t, nl)
	res, err := e.Tran(tau/100, 3*tau, TranOpts{UIC: true, IC: map[string]float64{"out": 1}})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Times) - 1
	want := math.Exp(-res.Times[last] / tau)
	if got := res.VoltAt("out", last); math.Abs(got-want) > 0.01 {
		t.Errorf("discharge end = %g, want %g", got, want)
	}
}

func TestSineSteadyState(t *testing.T) {
	// A sine source across a resistor reproduces the sine.
	nl := circuit.NewBuilder("sin").
		VSin("vin", "a", "0", 0.4, 0.2, 1e9).
		R("r1", "a", "0", 1e3).
		Netlist()
	e := mustEngine(t, nl)
	res, err := e.Tran(10e-12, 2e-9, TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range res.Times {
		want := 0.4 + 0.2*math.Sin(2*math.Pi*1e9*tm)
		if got := res.VoltAt("a", k); math.Abs(got-want) > 1e-6 {
			t.Fatalf("sine at %g: %g vs %g", tm, got, want)
		}
	}
}

func TestLCOscillationPreservesAmplitude(t *testing.T) {
	// Ideal LC tank started from a charged cap: trapezoidal
	// integration must not decay the oscillation noticeably.
	l, c := 1e-9, 1e-12 // f0 ~ 5.03 GHz
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*c))
	nl := circuit.NewBuilder("lc").
		L("l1", "out", "0", l).
		C("c1", "out", "0", c).
		R("rbig", "out", "0", 1e9).
		Netlist()
	e := mustEngine(t, nl)
	period := 1 / f0
	res, err := e.Tran(period/200, 10*period, TranOpts{UIC: true, IC: map[string]float64{"out": 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Peak amplitude in the last period should stay near 1.
	peak := 0.0
	for k, tm := range res.Times {
		if tm > 9*period {
			if v := math.Abs(res.VoltAt("out", k)); v > peak {
				peak = v
			}
		}
	}
	if peak < 0.95 || peak > 1.05 {
		t.Errorf("LC amplitude after 10 cycles = %g, want ~1", peak)
	}
}

func TestCMOSInverterSwitching(t *testing.T) {
	nl := circuit.NewBuilder("sw").
		V("vdd", "vdd", "0", 0.8).
		VPulse("vin", "g", "0", 0, 0.8, 100e-12, 20e-12, 20e-12, 400e-12, 1e-9).
		MOS("mp", circuit.PMOS, "d", "g", "vdd", "vdd", 4, 2, 1, 14).
		MOS("mn", circuit.NMOS, "d", "g", "0", "0", 4, 2, 1, 14).
		C("cl", "d", "0", 2e-15).
		Netlist()
	e := mustEngine(t, nl)
	res, err := e.Tran(2e-12, 1e-9, TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Volt("d")
	// Starts high (input low).
	if v[0] < 0.75 {
		t.Errorf("initial output = %g", v[0])
	}
	// Low while input is high (t in [150p, 450p]).
	atTime := func(tm float64) float64 {
		for k, x := range res.Times {
			if x >= tm {
				return v[k]
			}
		}
		return v[len(v)-1]
	}
	if got := atTime(300e-12); got > 0.1 {
		t.Errorf("output during pulse = %g, want ~0", got)
	}
	// Recovers high after the pulse.
	if got := atTime(900e-12); got < 0.7 {
		t.Errorf("output after pulse = %g, want ~vdd", got)
	}
}

func TestTranValidation(t *testing.T) {
	nl := circuit.NewBuilder("v").V("v1", "a", "0", 1).R("r", "a", "0", 1e3).Netlist()
	e := mustEngine(t, nl)
	if _, err := e.Tran(0, 1e-9, TranOpts{}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := e.Tran(1e-9, 1e-12, TranOpts{}); err == nil {
		t.Error("stop < step accepted")
	}
}

func TestTranWaveformAccessors(t *testing.T) {
	nl := circuit.NewBuilder("acc").
		V("v1", "a", "0", 1).
		R("r1", "a", "b", 1e3).
		R("r2", "b", "0", 1e3).
		Netlist()
	e := mustEngine(t, nl)
	res, err := e.Tran(1e-12, 10e-12, TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != len(res.X) || len(res.Times) < 2 {
		t.Fatalf("times/X mismatch: %d vs %d", len(res.Times), len(res.X))
	}
	vb := res.Volt("b")
	for _, v := range vb {
		if math.Abs(v-0.5) > 1e-6 {
			t.Errorf("V(b) = %g, want 0.5", v)
		}
	}
	iv, err := res.Current("v1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv[len(iv)-1]+0.5e-3) > 1e-9 {
		t.Errorf("I(v1) = %g, want -0.5mA", iv[len(iv)-1])
	}
	if _, err := res.Current("r1"); err == nil {
		t.Error("resistor tran current lookup should fail")
	}
	// Unknown net gives zeros, not a panic.
	z := res.Volt("ghost")
	if len(z) != len(res.Times) || z[0] != 0 {
		t.Error("ghost net waveform wrong")
	}
}
