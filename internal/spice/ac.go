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

	// Linearize devices once at the operating point.
	lin := e.linearizeAt(op)

	res := &ACResult{Freqs: freqs, e: e}
	M := numeric.NewCMatrix(e.n)
	rhs := make([]complex128, e.n)
	// Adjacent log-spaced points differ only in omega, so the complex
	// workspace's pivot order usually carries from point to point.
	ws := numeric.NewCWorkspace(e.n)
	var reusedPiv int64
	for _, f := range freqs {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		omega := 2 * math.Pi * f
		M.Zero()
		for i := range rhs {
			rhs[i] = 0
		}
		e.stampACLinear(M, rhs)
		e.acCapStampAll(M, omega)
		lin.stampAC(M, omega)
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

// linearized holds the MOS small-signal parameters at the OP.
type linearized struct {
	e      *Engine
	states []device.MOSState
	nodes  [][4]int // d, g, s, b per MOS
}

// linearizeAt evaluates every MOS at the operating point.
func (e *Engine) linearizeAt(op *OPResult) *linearized {
	l := &linearized{e: e}
	for mi := range e.mos {
		nd, ng, ns, nb := e.mosNode[mi][0], e.mosNode[mi][1], e.mosNode[mi][2], e.mosNode[mi][3]
		st := e.mosCtx[mi].Eval(volt(op.X, nd), volt(op.X, ng), volt(op.X, ns), volt(op.X, nb))
		l.states = append(l.states, st)
		l.nodes = append(l.nodes, [4]int{nd, ng, ns, nb})
	}
	return l
}

// stampAC stamps the linearized MOS conductances and capacitances at
// angular frequency omega.
func (l *linearized) stampAC(M *numeric.CMatrix, omega float64) {
	add := func(i, j int, v complex128) {
		if i >= 0 && j >= 0 {
			M.Add(i, j, v)
		}
	}
	// Two-node admittance stamp for a capacitance.
	capStamp := func(a, b int, c float64) {
		y := complex(0, omega*c)
		add(a, a, y)
		add(b, b, y)
		add(a, b, -y)
		add(b, a, -y)
	}
	for k, st := range l.states {
		nd, ng, ns, nb := l.nodes[k][0], l.nodes[k][1], l.nodes[k][2], l.nodes[k][3]
		cols := [4]int{nd, ng, ns, nb}
		gs := [4]float64{st.GdVd, st.GdVg, st.GdVs, st.GdVb}
		for c := 0; c < 4; c++ {
			add(nd, cols[c], complex(gs[c], 0))
			add(ns, cols[c], complex(-gs[c], 0))
		}
		capStamp(ng, ns, st.Cgs)
		capStamp(ng, nd, st.Cgd)
		capStamp(ng, nb, st.Cgb)
		capStamp(nd, nb, st.Cdb)
		capStamp(ns, nb, st.Csb)
	}
}

// stampACLinear stamps R, C, L, sources, and controlled sources into
// the complex system. Independent sources contribute their AC
// magnitude and phase; DC values are irrelevant in small signal.
func (e *Engine) stampACLinear(M *numeric.CMatrix, rhs []complex128) {
	add := func(i, j int, v complex128) {
		if i >= 0 && j >= 0 {
			M.Add(i, j, v)
		}
	}
	two := func(p, q int, y complex128) {
		add(p, p, y)
		add(q, q, y)
		add(p, q, -y)
		add(q, p, -y)
	}
	for _, d := range e.res {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		two(p, q, complex(1/d.Param("r", 1), 0))
	}
	// Explicit C and L are frequency-dependent and stamped separately
	// by acCapStampAll.
	for di, d := range e.vsrc {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		b := e.vsrcBr[di]
		add(p, b, 1)
		add(q, b, -1)
		add(b, p, 1)
		add(b, q, -1)
		mag := d.Param("acmag", 0)
		ph := d.Param("acphase", 0) * math.Pi / 180
		rhs[b] += cmplx.Rect(mag, ph)
	}
	for _, d := range e.isrc {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		mag := d.Param("acmag", 0)
		ph := d.Param("acphase", 0) * math.Pi / 180
		v := cmplx.Rect(mag, ph)
		if p >= 0 {
			rhs[p] -= v
		}
		if q >= 0 {
			rhs[q] += v
		}
	}
	for di, d := range e.vcvs {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		cp, cn := e.node(d.Nets[2]), e.node(d.Nets[3])
		b := e.vcvsBr[di]
		g := complex(d.Param("gain", 1), 0)
		add(p, b, 1)
		add(q, b, -1)
		add(b, p, 1)
		add(b, q, -1)
		add(b, cp, -g)
		add(b, cn, g)
	}
	for _, d := range e.vccs {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		cp, cn := e.node(d.Nets[2]), e.node(d.Nets[3])
		g := complex(d.Param("gain", 0), 0)
		add(p, cp, g)
		add(p, cn, -g)
		add(q, cp, -g)
		add(q, cn, g)
	}
}

// acCapStampAll stamps explicit C and L at omega. Called by AC() per
// frequency point.
func (e *Engine) acCapStampAll(M *numeric.CMatrix, omega float64) {
	add := func(i, j int, v complex128) {
		if i >= 0 && j >= 0 {
			M.Add(i, j, v)
		}
	}
	for _, d := range e.caps {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		y := complex(0, omega*d.Param("c", 0))
		add(p, p, y)
		add(q, q, y)
		add(p, q, -y)
		add(q, p, -y)
	}
	for di, d := range e.inds {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		b := e.indBr[di]
		add(p, b, 1)
		add(q, b, -1)
		add(b, p, 1)
		add(b, q, -1)
		add(b, b, complex(0, -omega*d.Param("l", 0)))
	}
}
