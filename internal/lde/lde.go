// Package lde models the layout-dependent effects (LDEs) the paper's
// primitive selection step accounts for: length-of-diffusion (LOD)
// stress and well-proximity effect (WPE). Both shift threshold voltage
// and mobility as a function of the generated layout's geometry, so
// different (nfin, nf, m) factorizations and placement patterns of the
// same schematic device behave differently after layout — the effect
// Table III of the paper quantifies.
//
// The functional forms follow the classic BSIM formulations
// (ΔVth_LOD ∝ 1/SA + 1/SB averaged over fingers; ΔVth_WPE decaying
// with distance to the well edge), with coefficients taken from the
// simulated PDK. The absolute magnitudes are synthetic; the geometry
// dependence — which is what the methodology exploits — is faithful.
package lde

import (
	"math"

	"primopt/internal/pdk"
)

// Context captures the layout situation of one device (one
// multi-finger FinFET) as produced by the cell generator.
type Context struct {
	NF int // number of fingers

	// SA and SB are the diffusion extensions (nm) from the first and
	// last gate to the respective diffusion edge. Interior fingers are
	// derived from these plus the poly pitch per the BSIM multi-finger
	// average.
	SA, SB int64

	// WellDist is the distance (nm) from the device's active area to
	// the nearest well edge.
	WellDist int64

	// Dummies is the number of dummy poly fingers on each side (they
	// extend the effective diffusion, relieving LOD stress).
	Dummies int
}

// Shift is the electrical consequence of the layout context.
type Shift struct {
	DVth     float64 // V, added to threshold voltage
	MuFactor float64 // multiplicative mobility factor (≈1)
}

// Eval computes the LDE-induced shifts for a device in the given
// context under technology t.
func Eval(t *pdk.Tech, c Context) Shift {
	nf := c.NF
	if nf < 1 {
		nf = 1
	}
	// Dummies push the diffusion edge outward by one poly pitch each.
	sa := float64(c.SA + int64(c.Dummies)*t.PolyPitch)
	sb := float64(c.SB + int64(c.Dummies)*t.PolyPitch)
	if sa < 1 {
		sa = 1
	}
	if sb < 1 {
		sb = 1
	}
	cpp := float64(t.PolyPitch)

	// BSIM-style multi-finger average of the inverse stress distances:
	// finger i (0-based) sees SA + i*CPP on one side and
	// SB + (nf-1-i)*CPP on the other.
	invSA, invSB := 0.0, 0.0
	for i := 0; i < nf; i++ {
		invSA += 1 / (sa + float64(i)*cpp)
		invSB += 1 / (sb + float64(nf-1-i)*cpp)
	}
	invSA /= float64(nf)
	invSB /= float64(nf)

	ref := float64(t.LODSARef)
	// Normalized stress measure: 1 when SA=SB=ref for a single finger.
	stress := ref * (invSA + invSB) / 2

	dvthLOD := t.LODVthRef * stress
	muLOD := 1 - t.LODMuFrac*stress

	// WPE: exponential decay with distance to the well edge.
	wd := float64(c.WellDist)
	if wd < 0 {
		wd = 0
	}
	dvthWPE := t.WPEVthRef * math.Exp(-wd/float64(t.WPEDistRef))

	return Shift{
		DVth:     dvthLOD + dvthWPE,
		MuFactor: muLOD,
	}
}

// RandomOffsetSigma returns the 1-sigma random Vth mismatch (V) of a
// matched pair where each side has the given total number of
// fin-fingers (nfin × nf × m). Pelgrom scaling: σ ∝ 1/sqrt(area), and
// the differential pair mismatch is sqrt(2) of the single-device
// sigma.
func RandomOffsetSigma(t *pdk.Tech, finFingers int) float64 {
	if finFingers < 1 {
		finFingers = 1
	}
	return t.SigmaVth1F * math.Sqrt2 / math.Sqrt(float64(finFingers))
}
