// Package device implements the compact models evaluated by the MNA
// simulator: a smooth EKV-style FinFET model (continuous from
// subthreshold through saturation, with channel-length modulation,
// bias-dependent intrinsic capacitances, overlap and junction
// capacitances, and LDE hooks), plus time-domain evaluation of the
// independent-source waveforms.
//
// The paper's methodology relies on "cheap SPICE simulations" of
// primitives whose devices respond to (a) series parasitic R at their
// terminals, (b) added C on their nets, and (c) LDE-induced Vth and
// mobility shifts. This model is built to capture exactly those
// sensitivities with guaranteed Newton-friendly smoothness.
package device

import (
	"math"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
)

// Vt is the thermal voltage at room temperature (V).
const Vt = 0.02585

// MOSState is the full small-signal + large-signal evaluation of a
// FinFET at one bias point. Current sign convention: Ids flows into
// the drain terminal and out of the source terminal (negative for a
// conducting PMOS).
type MOSState struct {
	Ids float64 // A

	// Conductances: partial derivatives of the drain current with
	// respect to each terminal voltage. GdVb = -(GdVd+GdVg+GdVs)
	// because a common-mode shift leaves Ids unchanged.
	GdVd, GdVg, GdVs, GdVb float64

	// Capacitances between terminals at this bias (F, >= 0).
	Cgs, Cgd, Cgb, Cdb, Csb float64
}

// Gm returns the gate transconductance.
func (s MOSState) Gm() float64 { return s.GdVg }

// Gds returns the output conductance.
func (s MOSState) Gds() float64 { return s.GdVd }

// mosGeom captures the geometry-derived quantities of a device.
type mosGeom struct {
	weff   float64 // total electrical width, nm
	l      float64 // gate length, nm
	beta   float64 // µCox W/L with LDE mobility factor, A/V^2
	vth    float64 // threshold incl. LDE shift, V
	lambda float64
	n      float64 // subthreshold slope factor
	cgg    float64 // intrinsic gate capacitance, F
	cov    float64 // overlap cap per side, F
	cjd    float64 // drain junction cap, F
	cjs    float64 // source junction cap, F
}

func geometry(t *pdk.Tech, d *circuit.Device) mosGeom {
	mp := &d.MOS
	nfin, nf, m, l := mp.NFin, mp.NF, mp.M, mp.L
	if l <= 0 {
		l = float64(t.GateL)
	}
	fins := nfin * nf * m
	if fins < 1 {
		fins = 1
	}
	weff := fins * t.FinW()

	var u0, vth0, lambda float64
	if d.Type == circuit.NMOS {
		u0, vth0, lambda = t.U0N, t.VthN, t.LambdaN
	} else {
		u0, vth0, lambda = t.U0P, t.VthP, t.LambdaP
	}
	// LDE hooks attached by extraction: additive Vth shift and
	// multiplicative mobility factor.
	vth, mu := vth0, u0
	if mp.Extracted {
		vth += mp.DVth
		mu *= mp.DMu
	}

	// Overlap capacitance scales with the physical gate edge length
	// (fin pitch × fins), not the electrical width (which counts the
	// fin sidewalls and would overstate the overlap ~3×).
	widthPhys := nfin * m * float64(t.FinPitch)
	g := mosGeom{
		weff:   weff,
		l:      l,
		beta:   mu * t.Cox * weff / l,
		vth:    vth,
		lambda: lambda,
		n:      t.SSn,
		cgg:    t.Cox * weff * l,
		cov:    t.CovPerW * widthPhys * nf,
	}

	// Junction capacitance: extraction provides exact diffusion areas
	// (AD/AS nm^2, PD/PS nm); the fallback is the idealized
	// fully-shared estimate (interior diffusion extension, half
	// allocation per device) that schematic-level simulation assumes.
	defArea := widthPhys * float64(t.DiffExt) / 2
	defPerim := widthPhys + float64(t.DiffExt)
	ad, as, pd, ps := defArea, defArea, defPerim, defPerim
	if mp.Extracted {
		ad, as, pd, ps = mp.AD, mp.AS, mp.PD, mp.PS
	}
	g.cjd = t.CjArea*ad + t.CjPerim*pd
	g.cjs = t.CjArea*as + t.CjPerim*ps
	return g
}

// ekvF is the EKV interpolation function F(v) = ln^2(1 + e^{v/2}),
// smooth from weak (exponential) to strong (quadratic) inversion.
func ekvF(v float64) float64 {
	l := softlog(v)
	return l * l
}

// ekvFPrime is dF/dv = ln(1+e^{v/2}) * sigmoid(v/2).
func ekvFPrime(v float64) float64 {
	return softlog(v) * sigmoidHalf(v)
}

// ekvFBoth returns F(v) and F'(v) sharing one exponential.
func ekvFBoth(v float64) (f, fp float64) {
	switch {
	case v > 80:
		l := v / 2
		return l * l, l
	case v < -80:
		e := math.Exp(v / 2)
		return e * e, e
	default:
		e := math.Exp(v / 2)
		l := math.Log1p(e)
		return l * l, l * e / (1 + e)
	}
}

// softlog returns ln(1+e^{v/2}) with overflow-safe asymptotics.
func softlog(v float64) float64 {
	if v > 80 {
		return v / 2
	}
	if v < -80 {
		return math.Exp(v / 2)
	}
	return math.Log1p(math.Exp(v / 2))
}

// sigmoidHalf returns 1/(1+e^{-v/2}).
func sigmoidHalf(v float64) float64 {
	if v > 80 {
		return 1
	}
	if v < -80 {
		return math.Exp(v / 2)
	}
	return 1 / (1 + math.Exp(-v/2))
}

// EvalContext caches a device's geometry-derived constants so the
// simulator's inner loops avoid re-reading the parameter maps at
// every Newton iteration.
type EvalContext struct {
	g   mosGeom
	isP bool
}

// NewContext precomputes the evaluation context for a MOS device.
func NewContext(t *pdk.Tech, d *circuit.Device) EvalContext {
	return EvalContext{g: geometry(t, d), isP: d.Type == circuit.PMOS}
}

// Eval evaluates the device at the given terminal voltages.
func (c *EvalContext) Eval(vd, vg, vs, vb float64) MOSState {
	var st MOSState
	c.EvalInto(&st, vd, vg, vs, vb)
	return st
}

// EvalInto evaluates the device at the given terminal voltages,
// writing the state through st. The stamp loops call this once per
// device per Newton iteration; writing in place avoids copying the
// ten-field state struct through a return value each time.
func (c *EvalContext) EvalInto(st *MOSState, vd, vg, vs, vb float64) {
	if c.isP {
		// Evaluate the mirrored NMOS and flip current + derivative
		// signs: I_P(v) = -I_N(-v), dI_P/dv_x = dI_N/du_x evaluated
		// at u = -v.
		evalNMOSCore(st, &c.g, -vd, -vg, -vs, -vb)
		st.Ids = -st.Ids
		return
	}
	evalNMOSCore(st, &c.g, vd, vg, vs, vb)
}

// EvalMOS evaluates the FinFET d of type NMOS/PMOS at the given
// terminal voltages (drain, gate, source, bulk). Callers with hot
// loops should construct an EvalContext once instead.
func EvalMOS(t *pdk.Tech, d *circuit.Device, vd, vg, vs, vb float64) MOSState {
	c := NewContext(t, d)
	return c.Eval(vd, vg, vs, vb)
}

// evalNMOSCore computes the NMOS characteristics with source/drain
// symmetry enforced by swapping so the "drain" is the higher
// potential, writing the result through st.
func evalNMOSCore(st *MOSState, g *mosGeom, vd, vg, vs, vb float64) {
	swapped := vd < vs
	if swapped {
		vd, vs = vs, vd
	}
	// Bulk-referenced EKV.
	vgb := vg - vb
	vsb := vs - vb
	vdb := vd - vb
	vp := (vgb - g.vth) / g.n

	uf := (vp - vsb) / Vt
	ur := (vp - vdb) / Vt
	iff, fpf := ekvFBoth(uf)
	irr, fpr := ekvFBoth(ur)

	ispec := 2 * g.n * g.beta * Vt * Vt
	vds := vdb - vsb // >= 0 after swap
	clm := 1 + g.lambda*vds

	ids := ispec * (iff - irr) * clm

	// Derivatives w.r.t. (vd, vg, vs); bulk from the zero-sum rule.
	gdvg := ispec * clm * (fpf - fpr) / (g.n * Vt)
	gdvd := ispec * (clm*fpr/Vt + (iff-irr)*g.lambda)
	gdvs := ispec * (-clm*fpf/Vt - (iff-irr)*g.lambda)
	gdvb := -(gdvg + gdvd + gdvs)

	// Bias-dependent intrinsic capacitance partition. inv in [0, 1)
	// tracks inversion strength; sat in [0, 1] tracks saturation.
	inv := iff / (1 + iff)
	sat := 0.0
	if iff+irr > 1e-30 {
		sat = (iff - irr) / (iff + irr)
	}
	cgs := g.cgg * inv * (0.5 + sat/6.0)
	cgd := g.cgg * inv * 0.5 * (1 - sat)
	cgb := g.cgg * (1 - inv) * 0.4

	st.Ids = ids
	st.GdVd, st.GdVg, st.GdVs, st.GdVb = gdvd, gdvg, gdvs, gdvb
	st.Cgs = cgs + g.cov
	st.Cgd = cgd + g.cov
	st.Cgb = cgb
	st.Cdb = g.cjd
	st.Csb = g.cjs
	if swapped {
		// Undo the swap: exchange drain/source roles everywhere.
		st.Ids = -st.Ids
		st.GdVd, st.GdVs = -st.GdVs, -st.GdVd
		st.GdVg = -st.GdVg
		st.GdVb = -st.GdVb
		st.Cgs, st.Cgd = st.Cgd, st.Cgs
		st.Cdb, st.Csb = st.Csb, st.Cdb
	}
}

// TotalFins returns nfin*nf*m for a MOS device (min 1).
func TotalFins(d *circuit.Device) int {
	n := int(d.MOS.NFin * d.MOS.NF * d.MOS.M)
	if n < 1 {
		return 1
	}
	return n
}

// SourceValueAt returns the instantaneous value of a V/I source at
// time tm, honoring PULSE, SIN, and PWL waveforms and falling back to
// the DC value.
func SourceValueAt(d *circuit.Device, tm float64) float64 {
	return SourceValue(d.DC, d.Wave, tm)
}

// SourceValue is the compiled form of SourceValueAt: the engine keeps
// each source's DC value and wave and evaluates them here every
// integration step.
func SourceValue(dc float64, w *circuit.SourceWave, tm float64) float64 {
	if w == nil {
		return dc
	}
	switch w.Kind {
	case "pulse":
		return pulseAt(w.Args, tm)
	case "sin":
		return sinAt(w.Args, tm)
	case "pwl":
		return pwlAt(w.Times, w.Vals, tm)
	default:
		return dc
	}
}

func pulseAt(a []float64, tm float64) float64 {
	// v1 v2 td tr tf pw per
	get := func(i int, def float64) float64 {
		if i < len(a) {
			return a[i]
		}
		return def
	}
	v1 := get(0, 0)
	v2 := get(1, 0)
	td := get(2, 0)
	tr := get(3, 1e-12)
	tf := get(4, 1e-12)
	pw := get(5, 1e-9)
	per := get(6, 0)
	if tr <= 0 {
		tr = 1e-15
	}
	if tf <= 0 {
		tf = 1e-15
	}
	if tm < td {
		return v1
	}
	t := tm - td
	if per > 0 {
		t = math.Mod(t, per)
	}
	switch {
	case t < tr:
		return v1 + (v2-v1)*t/tr
	case t < tr+pw:
		return v2
	case t < tr+pw+tf:
		return v2 + (v1-v2)*(t-tr-pw)/tf
	default:
		return v1
	}
}

func sinAt(a []float64, tm float64) float64 {
	get := func(i int, def float64) float64 {
		if i < len(a) {
			return a[i]
		}
		return def
	}
	vo := get(0, 0)
	va := get(1, 0)
	freq := get(2, 0)
	td := get(3, 0)
	theta := get(4, 0)
	if tm < td {
		return vo
	}
	t := tm - td
	damp := 1.0
	if theta != 0 {
		damp = math.Exp(-t * theta)
	}
	return vo + va*damp*math.Sin(2*math.Pi*freq*t)
}

func pwlAt(times, vals []float64, tm float64) float64 {
	n := len(times)
	if n == 0 {
		return 0
	}
	if tm <= times[0] {
		return vals[0]
	}
	for i := 1; i < n; i++ {
		if tm <= times[i] {
			span := times[i] - times[i-1]
			if span <= 0 {
				return vals[i]
			}
			f := (tm - times[i-1]) / span
			return vals[i-1] + f*(vals[i]-vals[i-1])
		}
	}
	return vals[n-1]
}
