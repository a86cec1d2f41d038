package lde

import (
	"math"
	"testing"
	"testing/quick"

	"primopt/internal/pdk"
)

var tech = pdk.Default()

func TestShiftPositiveAndBounded(t *testing.T) {
	s := Eval(tech, Context{NF: 4, SA: 60, SB: 60, WellDist: 200})
	if s.DVth <= 0 {
		t.Errorf("DVth = %g, want > 0", s.DVth)
	}
	if s.DVth > 0.1 {
		t.Errorf("DVth = %g implausibly large", s.DVth)
	}
	if s.MuFactor <= 0.8 || s.MuFactor >= 1.0 {
		t.Errorf("MuFactor = %g, want in (0.8, 1.0)", s.MuFactor)
	}
}

func TestLODDecreasesWithDiffusionExtension(t *testing.T) {
	near := Eval(tech, Context{NF: 2, SA: 30, SB: 30, WellDist: 10000})
	far := Eval(tech, Context{NF: 2, SA: 300, SB: 300, WellDist: 10000})
	if near.DVth <= far.DVth {
		t.Errorf("LOD shift should shrink with SA/SB: near %g far %g", near.DVth, far.DVth)
	}
	if near.MuFactor >= far.MuFactor {
		t.Errorf("mobility degradation should shrink with SA/SB: near %g far %g",
			near.MuFactor, far.MuFactor)
	}
}

func TestWPEDecaysWithWellDistance(t *testing.T) {
	near := Eval(tech, Context{NF: 2, SA: 100, SB: 100, WellDist: 50})
	far := Eval(tech, Context{NF: 2, SA: 100, SB: 100, WellDist: 2000})
	if near.DVth <= far.DVth {
		t.Errorf("WPE should decay with distance: near %g far %g", near.DVth, far.DVth)
	}
	// At several decay lengths the WPE term is nearly gone.
	veryFar := Eval(tech, Context{NF: 2, SA: 100, SB: 100, WellDist: 10 * tech.WPEDistRef})
	wpeResidual := veryFar.DVth - lodOnly(t, 2, 100, 100)
	if math.Abs(wpeResidual) > tech.WPEVthRef*0.01 {
		t.Errorf("WPE residual %g at 10 decay lengths", wpeResidual)
	}
}

func lodOnly(t *testing.T, nf int, sa, sb int64) float64 {
	t.Helper()
	// WellDist huge: WPE ~ 0.
	return Eval(tech, Context{NF: nf, SA: sa, SB: sb, WellDist: 1 << 30}).DVth
}

func TestDummiesRelieveLOD(t *testing.T) {
	none := Eval(tech, Context{NF: 2, SA: 30, SB: 30, WellDist: 10000})
	two := Eval(tech, Context{NF: 2, SA: 30, SB: 30, WellDist: 10000, Dummies: 2})
	if two.DVth >= none.DVth {
		t.Errorf("dummies should reduce LOD shift: %g vs %g", two.DVth, none.DVth)
	}
}

func TestMoreFingersRelieveAverageStress(t *testing.T) {
	// With more fingers, interior fingers sit far from the diffusion
	// edge, so the average stress drops.
	few := Eval(tech, Context{NF: 2, SA: 60, SB: 60, WellDist: 10000})
	many := Eval(tech, Context{NF: 16, SA: 60, SB: 60, WellDist: 10000})
	if many.DVth >= few.DVth {
		t.Errorf("multi-finger averaging should reduce LOD: nf16 %g vs nf2 %g",
			many.DVth, few.DVth)
	}
}

// TestMismatchSymmetricContextsIsZero: matched devices in identical
// contexts shift Vth equally, so they carry no systematic offset;
// asymmetric contexts (the AABB situation) do.
func TestMismatchSymmetricContextsIsZero(t *testing.T) {
	c := Context{NF: 4, SA: 60, SB: 90, WellDist: 300}
	if m := Eval(tech, c).DVth - Eval(tech, c).DVth; m != 0 {
		t.Errorf("identical contexts mismatch = %g", m)
	}
	a := Context{NF: 4, SA: 30, SB: 200, WellDist: 150}
	b := Context{NF: 4, SA: 200, SB: 200, WellDist: 600}
	if Eval(tech, a).DVth == Eval(tech, b).DVth {
		t.Error("asymmetric contexts should mismatch")
	}
}

func TestRandomOffsetSigmaPelgrom(t *testing.T) {
	small := RandomOffsetSigma(tech, 4)
	big := RandomOffsetSigma(tech, 400)
	if small <= big {
		t.Error("sigma should shrink with device area")
	}
	if r := small / big; math.Abs(r-10) > 1e-9 {
		t.Errorf("100x fins should give 10x sigma ratio, got %g", r)
	}
	if RandomOffsetSigma(tech, 0) != RandomOffsetSigma(tech, 1) {
		t.Error("degenerate count should clamp to 1")
	}
}

func TestDegenerateContexts(t *testing.T) {
	// Zero / negative geometry must not panic or produce NaN.
	for _, c := range []Context{
		{},
		{NF: 0, SA: 0, SB: 0, WellDist: 0},
		{NF: -3, SA: -10, SB: -10, WellDist: -5},
	} {
		s := Eval(tech, c)
		if math.IsNaN(s.DVth) || math.IsInf(s.DVth, 0) || math.IsNaN(s.MuFactor) {
			t.Errorf("context %+v produced NaN/Inf: %+v", c, s)
		}
	}
}

// Property: DVth is positive, monotone non-increasing in SA, and
// MuFactor stays in (0, 1].
func TestEvalProperties(t *testing.T) {
	f := func(nfRaw uint8, saRaw, sbRaw, wdRaw uint16) bool {
		nf := int(nfRaw)%20 + 1
		sa := int64(saRaw)%2000 + 10
		sb := int64(sbRaw)%2000 + 10
		wd := int64(wdRaw) % 5000
		s1 := Eval(tech, Context{NF: nf, SA: sa, SB: sb, WellDist: wd})
		s2 := Eval(tech, Context{NF: nf, SA: sa + 500, SB: sb, WellDist: wd})
		return s1.DVth > 0 && s2.DVth <= s1.DVth &&
			s1.MuFactor > 0 && s1.MuFactor <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
