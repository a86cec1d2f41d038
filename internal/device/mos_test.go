package device

import (
	"math"
	"testing"
	"testing/quick"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

func nmos(nfin, nf, m int) *circuit.Device {
	return &circuit.Device{Name: "m1", Type: circuit.NMOS, Nets: []string{"d", "g", "s", "b"},
		MOS: circuit.MOS{NFin: float64(nfin), NF: float64(nf), M: float64(m), L: float64(tech.GateL)}}
}

func pmos(nfin, nf, m int) *circuit.Device {
	d := nmos(nfin, nf, m)
	d.Type = circuit.PMOS
	return d
}

func TestNMOSCutoffAndConduction(t *testing.T) {
	d := nmos(8, 4, 1)
	off := EvalMOS(tech, d, 0.8, 0, 0, 0)
	on := EvalMOS(tech, d, 0.8, 0.6, 0, 0)
	if off.Ids < 0 {
		t.Errorf("cutoff leakage negative: %g", off.Ids)
	}
	if on.Ids < 1e-5 {
		t.Errorf("on current too small: %g", on.Ids)
	}
	if off.Ids > on.Ids*1e-3 {
		t.Errorf("off current %g not tiny vs on %g", off.Ids, on.Ids)
	}
}

func TestNMOSCurrentMagnitude(t *testing.T) {
	// 96 fins at 0.2 V overdrive should conduct mA-class current in a
	// 7nm-class node.
	d := nmos(8, 12, 1)
	st := EvalMOS(tech, d, 0.8, tech.VthN+0.2, 0, 0)
	if st.Ids < 100e-6 || st.Ids > 50e-3 {
		t.Errorf("Ids = %g A, want 0.1..50 mA", st.Ids)
	}
}

func TestPMOSPolarity(t *testing.T) {
	d := pmos(8, 4, 1)
	// PMOS source at vdd, gate low: conducts with Ids < 0 (current
	// flows out of the drain node into the channel from source).
	on := EvalMOS(tech, d, 0, 0, 0.8, 0.8)
	if on.Ids >= 0 {
		t.Errorf("conducting PMOS Ids = %g, want < 0", on.Ids)
	}
	off := EvalMOS(tech, d, 0, 0.8, 0.8, 0.8)
	if math.Abs(off.Ids) > math.Abs(on.Ids)*1e-3 {
		t.Errorf("PMOS off current %g not tiny", off.Ids)
	}
	// For a conducting PMOS, raising Vg reduces conduction, moving the
	// (negative) drain current toward zero: dIds/dVg > 0.
	if on.GdVg <= 0 {
		t.Errorf("PMOS GdVg = %g, want > 0", on.GdVg)
	}
}

func TestSourceDrainSymmetry(t *testing.T) {
	// Swapping D and S must exactly negate the current (the model
	// enforces this by construction).
	d := nmos(4, 4, 1)
	a := EvalMOS(tech, d, 0.3, 0.6, 0.1, 0)
	b := EvalMOS(tech, d, 0.1, 0.6, 0.3, 0)
	if math.Abs(a.Ids+b.Ids) > 1e-15*math.Max(1, math.Abs(a.Ids)) {
		t.Errorf("symmetry violated: %g vs %g", a.Ids, -b.Ids)
	}
	// At Vds = 0 the current is exactly 0.
	z := EvalMOS(tech, d, 0.2, 0.6, 0.2, 0)
	if z.Ids != 0 {
		t.Errorf("Ids at Vds=0: %g", z.Ids)
	}
}

func TestDerivativesMatchFiniteDifference(t *testing.T) {
	d := nmos(8, 8, 2)
	biases := [][4]float64{
		{0.5, 0.5, 0.0, 0.0},  // saturation
		{0.05, 0.6, 0.0, 0.0}, // triode
		{0.4, 0.25, 0.0, 0.0}, // subthreshold
		{0.4, 0.5, 0.1, 0.0},  // source degeneration
		{0.1, 0.5, 0.3, 0.0},  // reverse mode
	}
	const h = 1e-7
	for _, bias := range biases {
		vd, vg, vs, vb := bias[0], bias[1], bias[2], bias[3]
		st := EvalMOS(tech, d, vd, vg, vs, vb)
		checks := []struct {
			name string
			got  float64
			f    func(x float64) float64
			at   float64
		}{
			{"GdVd", st.GdVd, func(x float64) float64 { return EvalMOS(tech, d, x, vg, vs, vb).Ids }, vd},
			{"GdVg", st.GdVg, func(x float64) float64 { return EvalMOS(tech, d, vd, x, vs, vb).Ids }, vg},
			{"GdVs", st.GdVs, func(x float64) float64 { return EvalMOS(tech, d, vd, vg, x, vb).Ids }, vs},
			{"GdVb", st.GdVb, func(x float64) float64 { return EvalMOS(tech, d, vd, vg, vs, x).Ids }, vb},
		}
		for _, c := range checks {
			num := (c.f(c.at+h) - c.f(c.at-h)) / (2 * h)
			scale := math.Max(math.Abs(num), math.Abs(c.got))
			if scale < 1e-12 {
				continue
			}
			if math.Abs(num-c.got)/scale > 1e-3 {
				t.Errorf("bias %v: %s analytic %g vs numeric %g", bias, c.name, c.got, num)
			}
		}
	}
}

func TestDerivativeZeroSum(t *testing.T) {
	// Common-mode invariance: the four terminal derivatives sum to 0.
	f := func(vdr, vgr, vsr uint8) bool {
		vd := float64(vdr) / 255 * 0.8
		vg := float64(vgr) / 255 * 0.8
		vs := float64(vsr) / 255 * 0.8
		d := nmos(4, 2, 1)
		st := EvalMOS(tech, d, vd, vg, vs, 0)
		sum := st.GdVd + st.GdVg + st.GdVs + st.GdVb
		scale := math.Max(1e-9, math.Abs(st.GdVd)+math.Abs(st.GdVg))
		return math.Abs(sum)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSaturationCLM(t *testing.T) {
	// In saturation, Ids grows weakly with Vds (finite output
	// resistance) — the CLM that the paper's Rout metric relies on.
	d := nmos(8, 4, 1)
	i1 := EvalMOS(tech, d, 0.5, 0.6, 0, 0).Ids
	i2 := EvalMOS(tech, d, 0.7, 0.6, 0, 0).Ids
	if i2 <= i1 {
		t.Error("no channel-length modulation")
	}
	if (i2-i1)/i1 > 0.1 {
		t.Errorf("CLM too strong: %.1f%% over 0.2 V", 100*(i2-i1)/i1)
	}
	st := EvalMOS(tech, d, 0.6, 0.6, 0, 0)
	if st.GdVd <= 0 {
		t.Error("Gds must be positive in saturation")
	}
	if st.GdVg < 10*st.GdVd {
		t.Errorf("gm (%g) should dominate gds (%g) in saturation", st.GdVg, st.GdVd)
	}
}

func TestWidthScaling(t *testing.T) {
	// Doubling total fins doubles current (same bias, ignoring LDE).
	d1 := nmos(8, 4, 1)
	d2 := nmos(8, 4, 2)
	i1 := EvalMOS(tech, d1, 0.5, 0.6, 0, 0).Ids
	i2 := EvalMOS(tech, d2, 0.5, 0.6, 0, 0).Ids
	if math.Abs(i2/i1-2) > 1e-9 {
		t.Errorf("fin doubling current ratio = %g", i2/i1)
	}
}

func TestLDEHooksShiftCurrent(t *testing.T) {
	d := nmos(8, 4, 1)
	base := EvalMOS(tech, d, 0.5, 0.5, 0, 0).Ids
	// The junction values extraction sets with the shifts do not move
	// the drain current.
	d.MOS.Extracted = true
	d.MOS.DVth, d.MOS.DMu = 0.02, 1 // higher Vth -> less current
	hi := EvalMOS(tech, d, 0.5, 0.5, 0, 0).Ids
	if hi >= base {
		t.Errorf("dvth=+20mV should cut current: %g vs %g", hi, base)
	}
	d.MOS.DVth, d.MOS.DMu = 0, 0.9 // degraded mobility
	lo := EvalMOS(tech, d, 0.5, 0.5, 0, 0).Ids
	if lo >= base {
		t.Errorf("dmu=0.9 should cut current: %g vs %g", lo, base)
	}
	if math.Abs(lo/base-0.9) > 0.02 {
		t.Errorf("strong-inversion current should scale ~with mobility: ratio %g", lo/base)
	}
}

func TestCapacitancesPositiveAndPartition(t *testing.T) {
	d := nmos(8, 4, 1)
	sat := EvalMOS(tech, d, 0.6, 0.6, 0, 0)
	for name, c := range map[string]float64{
		"Cgs": sat.Cgs, "Cgd": sat.Cgd, "Cgb": sat.Cgb,
		"Cdb": sat.Cdb, "Csb": sat.Csb,
	} {
		if c < 0 || math.IsNaN(c) {
			t.Errorf("%s = %g", name, c)
		}
	}
	// Saturation: Cgs (intrinsic 2/3) well above Cgd (overlap only).
	if sat.Cgs <= sat.Cgd {
		t.Errorf("saturation Cgs %g should exceed Cgd %g", sat.Cgs, sat.Cgd)
	}
	// Triode: partition roughly equal.
	tri := EvalMOS(tech, d, 0.02, 0.8, 0, 0)
	if r := tri.Cgs / tri.Cgd; r < 0.8 || r > 1.3 {
		t.Errorf("triode Cgs/Cgd = %g, want ~1", r)
	}
	// Subthreshold: gate-bulk cap dominates intrinsic part.
	sub := EvalMOS(tech, d, 0.4, 0.1, 0, 0)
	if sub.Cgb < sat.Cgb {
		t.Error("Cgb should be larger in subthreshold than in strong inversion")
	}
}

func TestJunctionCapFromExtraction(t *testing.T) {
	d := nmos(8, 4, 1)
	d.MOS.Extracted = true
	d.MOS.DMu = 1
	d.MOS.AD, d.MOS.AS, d.MOS.PD, d.MOS.PS = 1e4, 1e4, 1e3, 1e3
	base := EvalMOS(tech, d, 0.4, 0.6, 0, 0)
	d.MOS.AD, d.MOS.PD = 1e6, 1e4 // huge drain diffusion
	big := EvalMOS(tech, d, 0.4, 0.6, 0, 0)
	if big.Cdb <= base.Cdb {
		t.Error("explicit diffusion area should raise Cdb")
	}
	if big.Csb != base.Csb {
		t.Error("source junction must be unaffected")
	}
}

func TestContinuityAcrossRegions(t *testing.T) {
	// Sweep Vgs through threshold and Vds through 0: Ids and GdVg
	// must be continuous (no model-binning jumps).
	d := nmos(4, 4, 1)
	prev := math.NaN()
	for vg := 0.0; vg <= 0.8; vg += 0.001 {
		i := EvalMOS(tech, d, 0.4, vg, 0, 0).Ids
		if !math.IsNaN(prev) {
			// Subthreshold current grows ~e^(dVg/nVt) ≈ 3%/mV, so allow
			// a 5% relative step; anything larger is a model-binning jump.
			if math.Abs(i-prev) > 0.05*(math.Abs(i)+1e-9) {
				t.Fatalf("Ids jump at vg=%.3f: %g -> %g", vg, prev, i)
			}
		}
		prev = i
	}
	prev = math.NaN()
	for vd := -0.2; vd <= 0.2; vd += 0.0005 {
		i := EvalMOS(tech, d, vd, 0.6, 0, 0).Ids
		if !math.IsNaN(prev) && math.Abs(i-prev) > 5e-5 {
			t.Fatalf("Ids jump at vd=%.4f: %g -> %g", vd, prev, i)
		}
		prev = i
	}
}

func TestTotalFins(t *testing.T) {
	if TotalFins(nmos(8, 20, 6)) != 960 {
		t.Error("TotalFins wrong")
	}
	bare := &circuit.Device{Name: "m", Type: circuit.NMOS, Nets: []string{"d", "g", "s", "b"}}
	if TotalFins(bare) != 1 {
		t.Error("default fins should be 1")
	}
}

func TestGmGdsAccessors(t *testing.T) {
	d := nmos(8, 4, 1)
	st := EvalMOS(tech, d, 0.6, 0.6, 0, 0)
	if st.Gm() != st.GdVg || st.Gds() != st.GdVd {
		t.Error("accessors disagree with fields")
	}
}
