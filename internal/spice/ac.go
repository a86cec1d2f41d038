package spice

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"primopt/internal/device"
	"primopt/internal/numeric"
)

// ACResult is a small-signal frequency sweep.
type ACResult struct {
	Freqs []float64      // Hz, ascending
	X     [][]complex128 // per frequency point, node voltages + branch currents
	e     *Engine
}

// Volt returns the complex node voltage at sweep point k.
func (r *ACResult) Volt(net string, k int) complex128 {
	idx, ok := r.e.NodeIndex(net)
	if !ok {
		return 0
	}
	return voltC(r.X[k], idx)
}

// MagDB returns 20·log10|V(net)| at sweep point k.
func (r *ACResult) MagDB(net string, k int) float64 {
	return 20 * math.Log10(cmplx.Abs(r.Volt(net, k)))
}

// PhaseDeg returns the phase of V(net) at point k in degrees.
func (r *ACResult) PhaseDeg(net string, k int) float64 {
	return cmplx.Phase(r.Volt(net, k)) * 180 / math.Pi
}

// Current returns the complex branch current of a V/E/L device at
// point k.
func (r *ACResult) Current(name string, k int) (complex128, error) {
	i, ok := r.e.BranchIndex(name)
	if !ok {
		return 0, fmt.Errorf("spice: no branch current for %q", name)
	}
	return r.X[k][i], nil
}

// AC performs a small-signal sweep linearized about op, with
// pointsPerDecade log-spaced points from fstart to fstop inclusive.
func (e *Engine) AC(fstart, fstop float64, pointsPerDecade int, op *OPResult) (*ACResult, error) {
	if fstart <= 0 || fstop < fstart {
		return nil, fmt.Errorf("spice: bad AC range [%g, %g]", fstart, fstop)
	}
	if pointsPerDecade < 1 {
		pointsPerDecade = 10
	}
	decades := math.Log10(fstop / fstart)
	npts := int(math.Ceil(decades*float64(pointsPerDecade))) + 1
	if npts < 2 {
		npts = 2
	}
	freqs := numeric.Logspace(fstart, fstop, npts)

	tr := e.tr
	var t0 time.Time
	if tr.Enabled() {
		t0 = time.Now() //lint:allow rngpurity trace-gated read feeding the spice.ac.solve_ns histogram only; tracing is passive (obs doc)
	}

	// Linearize the transistors once at the operating point. The
	// source phasors do not depend on frequency either.
	states := make([]device.MOSState, len(e.mos))
	for mi, n := range e.mosNode {
		states[mi] = e.mosCtx[mi].Eval(volt(op.X, n[0]), volt(op.X, n[1]), volt(op.X, n[2]), volt(op.X, n[3]))
	}
	rhs := make([]complex128, e.n)
	addSources(e, rhs, func(s *source) complex128 { return s.ac })

	res := &ACResult{Freqs: freqs, e: e}
	M := numeric.NewCMatrix(e.n)
	// Adjacent log-spaced points differ only in omega, so the complex
	// workspace's pivot order usually carries from point to point.
	ws := numeric.NewCWorkspace(e.n)
	var reusedPiv int64
	for _, f := range freqs {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		e.stampAC(M, 2*math.Pi*f, states)
		reused, err := ws.FactorInto(M)
		if err != nil {
			tr.Counter("spice.ac.failures").Inc()
			return nil, fmt.Errorf("spice: AC solve at %g Hz: %w", f, err)
		}
		if reused {
			reusedPiv++
		}
		x := make([]complex128, e.n)
		copy(x, rhs)
		ws.SolveInPlace(x)
		res.X = append(res.X, x)
	}
	if reusedPiv > 0 {
		tr.Counter("spice.factor.reused").Add(reusedPiv)
	}
	if tr.Enabled() {
		tr.Counter("spice.ac.runs").Inc()
		tr.Counter("spice.ac.points").Add(int64(len(freqs)))
		//lint:allow rngpurity trace-gated read feeding the spice.ac.solve_ns histogram only; tracing is passive (obs doc)
		tr.Histogram("spice.ac.solve_ns").Observe(float64(time.Since(t0).Nanoseconds()))
	}
	return res, nil
}

// stampAC builds the small-signal matrix at angular frequency omega:
// the real time-invariant stamp, then the capacitor admittances, the
// inductors' −jωL, and each transistor's conductances and
// capacitances in state states[mi].
func (e *Engine) stampAC(M *numeric.CMatrix, omega float64, states []device.MOSState) {
	for k, v := range e.base.Data {
		M.Data[k] = complex(v, 0)
	}
	add := func(i, j int, v complex128) {
		if i >= 0 && j >= 0 {
			M.Add(i, j, v)
		}
	}
	admit := func(c twoTerm) {
		y := complex(0, omega*c.v)
		add(c.a, c.a, y)
		add(c.b, c.b, y)
		add(c.a, c.b, -y)
		add(c.b, c.a, -y)
	}
	for _, c := range e.caps {
		admit(c)
	}
	for _, l := range e.inds {
		M.Add(l.br, l.br, complex(0, -omega*l.l))
	}
	for mi := range states {
		st := &states[mi]
		n := e.mosNode[mi]
		nd, ns := n[0], n[2]
		gs := [4]float64{st.GdVd, st.GdVg, st.GdVs, st.GdVb}
		for c := 0; c < 4; c++ {
			add(nd, n[c], complex(gs[c], 0))
			add(ns, n[c], complex(-gs[c], 0))
		}
		for _, c := range mosCaps(n, st) {
			admit(c)
		}
	}
}
