package spice

import (
	"context"
	"math"
	"testing"

	"primopt/internal/circuit"
)

// Controlled sources through the deck parser, AC, and transient.
func TestControlledSourcesEverywhere(t *testing.T) {
	src := `* controlled sources
Vin in 0 DC 0.1 AC 1 SIN(0.1 0.05 1e9)
E1 eout 0 in 0 5
Re eout 0 1k
G1 0 gout in 0 2m
Rg gout 0 1k
.op
.ac dec 5 1e6 1e8
.tran 50p 2n
.measure ac em find vm(eout) at=1e6
.measure ac ep find vp(eout) at=1e6
.measure ac er find vr(eout) at=1e6
.measure ac ei find vi(eout) at=1e6
.measure ac ie find i(e1) at=1e6
.measure tran emax max v(eout)
.measure tran erms rms v(eout) from=0 to=2n
.measure tran epp pp v(eout)
.measure tran gavg avg v(gout)
`
	res, _, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	// DC: E out = 0.5, G out = 0.1*2m*1k = 0.2.
	if v := res.OP.Volt("eout"); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("VCVS DC out = %g", v)
	}
	if v := res.OP.Volt("gout"); math.Abs(v-0.2) > 1e-9 {
		t.Errorf("VCCS DC out = %g", v)
	}
	// AC: |E out| = 5, phase 0.
	if m := res.Measures["em"]; math.Abs(m-5) > 1e-6 {
		t.Errorf("VCVS AC mag = %g", m)
	}
	if p := res.Measures["ep"]; math.Abs(p) > 1e-6 {
		t.Errorf("VCVS AC phase = %g", p)
	}
	if r := res.Measures["er"]; math.Abs(r-5) > 1e-6 {
		t.Errorf("vr = %g", r)
	}
	if i := res.Measures["ei"]; math.Abs(i) > 1e-6 {
		t.Errorf("vi = %g", i)
	}
	// Branch current of E: drives 1k with 5V -> 5mA magnitude.
	if ie := res.Measures["ie"]; math.Abs(ie-5e-3) > 1e-8 {
		t.Errorf("i(e1) = %g", ie)
	}
	// Transient: sine 0.1±0.05 scaled by 5 -> eout in [0.25, 0.75].
	if mx := res.Measures["emax"]; math.Abs(mx-0.75) > 0.01 {
		t.Errorf("tran max = %g", mx)
	}
	if pp := res.Measures["epp"]; math.Abs(pp-0.5) > 0.02 {
		t.Errorf("tran pp = %g", pp)
	}
	// RMS of 0.5 + 0.25 sin: sqrt(0.25 + 0.03125) ≈ 0.5303.
	if rms := res.Measures["erms"]; math.Abs(rms-0.5303) > 0.01 {
		t.Errorf("tran rms = %g", rms)
	}
	if avg := res.Measures["gavg"]; math.Abs(avg-0.2) > 0.01 {
		t.Errorf("tran avg = %g", avg)
	}
}

// Transient current sources with waveforms.
func TestTranCurrentSourcePulse(t *testing.T) {
	nl := circuit.New("ipulse")
	d := &circuit.Device{Name: "i1", Type: circuit.ISource, Nets: []string{"0", "out"}}
	d.DC = 0
	d.Wave = &circuit.SourceWave{Kind: "pulse", Args: []float64{0, 1e-3, 100e-12, 10e-12, 10e-12, 1e-9, 0}}
	nl.MustAdd(d)
	r := &circuit.Device{Name: "r1", Type: circuit.Resistor, Nets: []string{"out", "0"}}
	r.Value = 1e3
	nl.MustAdd(r)
	e := mustEngine(t, nl)
	res, err := e.Tran(10e-12, 500e-12, TranOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Volt("out")
	if v[0] > 1e-6 {
		t.Errorf("pre-pulse V = %g", v[0])
	}
	if last := v[len(v)-1]; math.Abs(last-1.0) > 1e-6 {
		t.Errorf("pulsed V = %g, want 1", last)
	}
}

// Measure error paths: unknown nets and invalid signal kinds.
func TestMeasureErrorPaths(t *testing.T) {
	base := "* t\nV1 a 0 DC 1 AC 1\nR1 a 0 1k\n.op\n.ac dec 5 1e6 1e8\n.tran 10p 100p\n"
	bad := []string{
		".measure ac x find vdb(ghost) at=1e6",
		".measure tran x max v(ghost)",
		".measure tran x max vdb(a)",           // vdb invalid in tran
		".measure ac x max q(a)",               // unknown signal kind
		".measure tran x when v(a)=5",          // never crosses
		".measure tran x max v(a) from=1 to=2", // empty window
		".measure ac x find i(r1) at=1e6",      // no branch current
	}
	for _, m := range bad {
		if _, _, err := RunSourceCtx(context.Background(), tech, base+m+"\n"); err == nil {
			t.Errorf("accepted: %s", m)
		}
	}
}

// A bistable latch exercises the OP fallback ladder: plain Newton from
// zero struggles on strong positive feedback; gmin stepping resolves
// it.
func TestOPBistableLatch(t *testing.T) {
	b := circuit.NewBuilder("latch")
	b.V("vdd", "vdd", "0", 0.8)
	// Two big cross-coupled CMOS inverters.
	b.MOS("mp1", circuit.PMOS, "a", "b", "vdd", "vdd", 16, 8, 1, 14).
		MOS("mn1", circuit.NMOS, "a", "b", "0", "0", 16, 8, 1, 14).
		MOS("mp2", circuit.PMOS, "b", "a", "vdd", "vdd", 16, 8, 1, 14).
		MOS("mn2", circuit.NMOS, "b", "a", "0", "0", 16, 8, 1, 14)
	e := mustEngine(t, b.Netlist())
	op, err := e.OP()
	if err != nil {
		t.Fatalf("latch OP failed: %v", err)
	}
	// Any self-consistent solution is acceptable (metastable or
	// latched); nodes must be inside the rails.
	for _, n := range []string{"a", "b"} {
		v := op.Volt(n)
		if v < -0.01 || v > 0.81 {
			t.Errorf("V(%s) = %g outside rails", n, v)
		}
	}
}

// AC current measurement through an inductor branch.
func TestACInductorBranchCurrent(t *testing.T) {
	// A small series R keeps the DC loop current determinate (an
	// ideal V source directly across an ideal L is singular at DC).
	src := `* lc branch current
V1 a 0 DC 0 AC 1
Rs a b 1
L1 b 0 1u
.ac dec 5 1e6 1e8
.measure ac il find i(l1) at=1e6
`
	res, _, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	// |I| ~ 1/(wL) at 1 MHz with 1 uH (R=1 negligible vs wL=6.3).
	want := 1 / math.Hypot(1, 2*math.Pi*1e6*1e-6)
	if il := res.Measures["il"]; math.Abs(il-want)/want > 0.01 {
		t.Errorf("|I(L)| = %g, want %g", il, want)
	}
}

// PWL sources drive transients through the deck path.
func TestTranPWLFromDeck(t *testing.T) {
	src := `* pwl ramp
V1 a 0 PWL(0 0 1n 0.8)
R1 a b 1k
C1 b 0 100f
.tran 20p 1n
.measure tran vend max v(a) from=0.9n to=1n
`
	res, _, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Measures["vend"]; math.Abs(v-0.8) > 0.02 {
		t.Errorf("ramp end = %g", v)
	}
}
