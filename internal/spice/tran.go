package spice

import (
	"fmt"
	"time"

	"primopt/internal/device"
	"primopt/internal/fault"
	"primopt/internal/numeric"
)

// TranResult is a transient waveform set sampled at the requested
// print interval.
type TranResult struct {
	Times []float64
	X     [][]float64 // per time point: node voltages + branch currents
	e     *Engine
}

// Volt returns the waveform of a net.
func (r *TranResult) Volt(net string) []float64 {
	idx, ok := r.e.NodeIndex(net)
	if !ok {
		return make([]float64, len(r.Times))
	}
	out := make([]float64, len(r.Times))
	for k, x := range r.X {
		out[k] = volt(x, idx)
	}
	return out
}

// VoltAt returns V(net) at time index k.
func (r *TranResult) VoltAt(net string, k int) float64 {
	idx, ok := r.e.NodeIndex(net)
	if !ok {
		return 0
	}
	return volt(r.X[k], idx)
}

// Current returns the branch-current waveform of a V/E/L device.
func (r *TranResult) Current(name string) ([]float64, error) {
	i, ok := r.e.BranchIndex(name)
	if !ok {
		return nil, fmt.Errorf("spice: no branch current for %q", name)
	}
	out := make([]float64, len(r.Times))
	for k, x := range r.X {
		out[k] = x[i]
	}
	return out, nil
}

// TranOpts configures a transient run.
type TranOpts struct {
	// IC overrides initial node voltages (net -> V) after the initial
	// operating point; used to kick oscillators and set comparator
	// initial states.
	IC map[string]float64
	// UIC skips the initial operating point entirely and starts from
	// zero plus IC, like SPICE's UIC.
	UIC bool
}

// capElem is a unified capacitance for transient integration: either
// an explicit capacitor or one of the five MOS capacitances.
type capElem struct {
	twoTerm         // nodes and current value, F (MOS caps updated per step)
	iPrev   float64 // capacitor current at the previous accepted point
}

// capComp is the trapezoidal Norton companion of one capacitance for
// the current step.
type capComp struct{ geq, ieq float64 }

// indComp is the trapezoidal companion of one inductor branch.
type indComp struct{ req, veq float64 }

// tranState carries the per-run integration state.
type tranState struct {
	e        *Engine
	capElems []capElem
	mosCapIx [][5]int  // per MOS: indices into capElems for gs, gd, gb, db, sb
	indIPrev []float64 // inductor branch currents at previous point

	// sys is the steps' Newton system: its A and b are Jlin and
	// rhsLin, the linear part of the current step. Its workspace
	// carries the LU factorization (and pivot order) across Newton
	// iterations AND across steps: when the waveform moves slowly the
	// next step's first iteration can solve against the previous
	// step's factorization (modified Newton) without refactoring.
	sys       *newtonSystem
	lastH     float64 // step size the current factorization was built at; 0 before the first
	lastIters int     // Newton iterations the previous accepted step took

	// Scratch buffers reused across steps.
	xNew   []float64
	xPrev  []float64
	xTry   []float64
	comps  []capComp
	icomps []indComp
	iCap   []float64
	iInd   []float64

	// Predictor state: the accepted solution one step back and the
	// step size that produced the current one, for the linear
	// extrapolation that seeds each step's Newton iteration.
	predPrev []float64
	predH    float64
	havePred bool
}

// Tran runs a transient analysis from 0 to tstop, storing points every
// tstep. Integration uses trapezoidal companions with Newton at each
// step and recursive step halving on nonconvergence.
func (e *Engine) Tran(tstep, tstop float64, opts TranOpts) (*TranResult, error) {
	if tstep <= 0 || tstop <= 0 || tstop < tstep {
		return nil, fmt.Errorf("spice: bad tran range step=%g stop=%g", tstep, tstop)
	}
	if err := e.inj.Hit(e.ctx, fault.SiteSpiceTran); err != nil {
		e.tr.Counter("spice.tran.failures").Inc()
		return nil, fmt.Errorf("spice: tran for %s: %w", e.NL.Name, err)
	}
	x := make([]float64, e.n)
	if !opts.UIC {
		op, err := e.OP()
		if err != nil {
			return nil, fmt.Errorf("spice: tran initial OP: %w", err)
		}
		copy(x, op.X)
	}
	for net, v := range opts.IC {
		if idx, ok := e.NodeIndex(net); ok && idx >= 0 {
			x[idx] = v
		}
	}

	st := &tranState{e: e,
		sys:   newNewtonSystem(numeric.NewMatrix(e.n), e.tranWorkspace()),
		xNew:  make([]float64, e.n),
		xPrev: make([]float64, e.n),
		xTry:  make([]float64, e.n),
	}
	st.sys.gmin = 1e-12
	st.predPrev = make([]float64, e.n)
	// Explicit capacitors.
	for _, c := range e.caps {
		st.capElems = append(st.capElems, capElem{twoTerm: c})
	}
	// MOS capacitances: five each, values refreshed per step.
	for range e.mos {
		var ix [5]int
		for k := 0; k < 5; k++ {
			ix[k] = len(st.capElems)
			st.capElems = append(st.capElems, capElem{twoTerm: twoTerm{a: -1, b: -1}})
		}
		st.mosCapIx = append(st.mosCapIx, ix)
	}
	st.indIPrev = make([]float64, len(e.inds))
	for i, l := range e.inds {
		st.indIPrev[i] = x[l.br]
	}
	st.comps = make([]capComp, len(st.capElems))
	st.icomps = make([]indComp, len(e.inds))
	st.iCap = make([]float64, len(st.capElems))
	st.iInd = make([]float64, len(e.inds))
	st.refreshMOSCaps(x)

	res := &TranResult{e: e}
	res.Times = append(res.Times, 0)
	res.X = append(res.X, append([]float64(nil), x...))

	tr := e.tr
	var t0 time.Time
	if tr.Enabled() {
		t0 = time.Now() //lint:allow rngpurity trace-gated read feeding the spice.tran.solve_ns histogram only; tracing is passive (obs doc)
	}
	t := 0.0
	for t < tstop-1e-21 {
		tNext := t + tstep
		if tNext > tstop {
			tNext = tstop
		}
		if err := st.advanceTo(x, t, tNext, tstep, 0); err != nil {
			tr.Counter("spice.tran.failures").Inc()
			return nil, fmt.Errorf("spice: tran stalled at t=%.4g: %w", t, err)
		}
		t = tNext
		res.Times = append(res.Times, t)
		res.X = append(res.X, append([]float64(nil), x...))
	}
	if tr.Enabled() {
		tr.Counter("spice.tran.runs").Inc()
		tr.Counter("spice.tran.points").Add(int64(len(res.Times)))
		//lint:allow rngpurity trace-gated read feeding the spice.tran.solve_ns histogram only; tracing is passive (obs doc)
		tr.Histogram("spice.tran.solve_ns").Observe(float64(time.Since(t0).Nanoseconds()))
	}
	return res, nil
}

// advanceTo integrates from t to tEnd using steps of at most h,
// halving recursively (up to depth 12) when Newton fails.
func (st *tranState) advanceTo(x []float64, t, tEnd, h float64, depth int) error {
	for t < tEnd-1e-21 {
		step := h
		if t+step > tEnd {
			step = tEnd - t
		}
		xTry := st.xTry
		copy(xTry, x)
		iCapNew, iIndNew, err := st.step(xTry, t, step)
		if err != nil {
			// Halving cannot rescue a canceled run — stop retrying.
			if cerr := st.e.canceled(); cerr != nil {
				return cerr
			}
			if depth >= 12 {
				return err
			}
			st.e.tr.Counter("spice.tran.halvings").Inc()
			if err2 := st.advanceTo(x, t, t+step, step/2, depth+1); err2 != nil {
				return err2
			}
			t += step
			continue
		}
		copy(x, xTry)
		for i := range st.capElems {
			st.capElems[i].iPrev = iCapNew[i]
		}
		copy(st.indIPrev, iIndNew)
		st.refreshMOSCapsFromStamp()
		t += step
	}
	return nil
}

// refreshMOSCaps re-evaluates the MOS capacitances at bias x. Used at
// init, where x may have moved arbitrarily far from the last stamped
// bias (IC overrides kick oscillator nodes after the OP).
func (st *tranState) refreshMOSCaps(x []float64) {
	e := st.e
	for mi := range e.mos {
		nd, ng, ns, nb := e.mosNode[mi][0], e.mosNode[mi][1], e.mosNode[mi][2], e.mosNode[mi][3]
		s := e.mosCtx[mi].Eval(volt(x, nd), volt(x, ng), volt(x, ns), volt(x, nb))
		st.setMOSCaps(mi, &s)
	}
}

// refreshMOSCapsFromStamp updates the MOS capacitances from the device
// states the final Newton stamp of the just-accepted step computed.
// That bias matches the accepted solution to within the convergence
// tolerance, so the full per-step device re-evaluation is redundant.
func (st *tranState) refreshMOSCapsFromStamp() {
	for mi := range st.e.mos {
		st.setMOSCaps(mi, &st.e.mosState[mi])
	}
}

// setMOSCaps writes the five capacitances of MOS mi into capElems.
func (st *tranState) setMOSCaps(mi int, s *device.MOSState) {
	ix := st.mosCapIx[mi]
	for k, c := range mosCaps(st.e.mosNode[mi], s) {
		st.capElems[ix[k]].twoTerm = c
	}
}

// mosCaps lists the five capacitances of a transistor with terminal
// unknowns n = (d, g, s, b) in state s: gs, gd, gb, db and sb.
func mosCaps(n [4]int, s *device.MOSState) [5]twoTerm {
	nd, ng, ns, nb := n[0], n[1], n[2], n[3]
	return [5]twoTerm{
		{ng, ns, s.Cgs}, {ng, nd, s.Cgd}, {ng, nb, s.Cgb},
		{nd, nb, s.Cdb}, {ns, nb, s.Csb},
	}
}

// step advances one trapezoidal step of size h from the state in x
// (which holds the solution at time t) to time t+h, leaving the new
// solution in x. It returns the new capacitor and inductor currents.
func (st *tranState) step(x []float64, t, h float64) ([]float64, []float64, error) {
	e := st.e
	// An armed spice.tran.step site fails this step like a Newton
	// nonconvergence would, driving the recursive halving path; armed
	// @N+ it exhausts the halving depth and stalls the analysis.
	if err := e.inj.Hit(e.ctx, fault.SiteSpiceTranStep); err != nil {
		return nil, nil, fmt.Errorf("tran step no convergence (h=%.3g): %w", h, err)
	}
	xNew := st.xNew
	xPrev := st.xPrev
	copy(xNew, x)
	copy(xPrev, x)
	tNew := t + h
	// Predictor: seed Newton with a linear extrapolation of the two
	// previous accepted points. In smooth waveform regions the
	// predicted voltages land within the bypass threshold of the
	// solution, cutting iterations per step; at source discontinuities
	// the clamp bounds the overshoot and Newton corrects it normally.
	if st.havePred && st.predH > 0 {
		r := h / st.predH
		for i := 0; i < e.numNodes; i++ {
			d := (x[i] - st.predPrev[i]) * r
			if d > dvLimit {
				d = dvLimit
			} else if d < -dvLimit {
				d = -dvLimit
			}
			xNew[i] += d
		}
	}

	// Trapezoidal companion for capacitor between nodes a, b:
	//   i(t+h) = geq·v(t+h) - geq·v(t) - i(t),  geq = 2C/h.
	// Norton: conductance geq, current source ieq = geq·v(t) + i(t)
	// flowing a->b through the element.
	comps := st.comps
	for i, ce := range st.capElems {
		geq := 2 * ce.v / h
		vPrev := volt(xPrev, ce.a) - volt(xPrev, ce.b)
		comps[i] = capComp{geq: geq, ieq: geq*vPrev + ce.iPrev}
	}
	// Trapezoidal companion for inductors (branch formulation):
	//   v = L di/dt -> i(t+h) = i(t) + (h/2L)(v(t)+v(t+h))
	// Branch row: v(t+h) - (2L/h)·i(t+h) = -v(t) - (2L/h)·i(t).
	icomps := st.icomps
	for i, l := range e.inds {
		req := 2 * l.l / h
		vPrev := volt(xPrev, l.p) - volt(xPrev, l.q)
		icomps[i] = indComp{req: req, veq: -vPrev - req*st.indIPrev[i]}
	}

	tr := e.tr
	tr.Counter("spice.tran.steps").Inc()
	e.work.Steps++
	// Everything except the MOS stamps — the engine's time-invariant
	// stamp, the sources at tNew, and the trapezoidal companions — is
	// constant across this step's Newton iterations. Stamp it once
	// into Jlin/rhsLin; only the transistors are re-linearized at the
	// moving iterate.
	Jlin, rhsLin := st.sys.A, st.sys.b
	copy(Jlin.Data, e.base.Data)
	clear(rhsLin)
	addSources(e, rhsLin, func(s *source) float64 { return device.SourceValue(s.dc, s.wave, tNew) })
	// Capacitor companions.
	for i := range st.capElems {
		ce := &st.capElems[i]
		g, ieq := comps[i].geq, comps[i].ieq
		if g == 0 {
			continue
		}
		if ce.a >= 0 {
			Jlin.Add(ce.a, ce.a, g)
			rhsLin[ce.a] += ieq
		}
		if ce.b >= 0 {
			Jlin.Add(ce.b, ce.b, g)
			rhsLin[ce.b] -= ieq
		}
		if ce.a >= 0 && ce.b >= 0 {
			Jlin.Add(ce.a, ce.b, -g)
			Jlin.Add(ce.b, ce.a, -g)
		}
	}
	// Inductor companions. The node/branch couplings live in base;
	// only the h-dependent branch resistance and rhs term stamp here.
	for i, l := range e.inds {
		Jlin.Add(l.br, l.br, -icomps[i].req)
		rhsLin[l.br] += icomps[i].veq
	}
	// Cross-step continuation: when the previous step converged fast
	// (the waveform is in a smooth region) and the step size hasn't
	// changed, its factorization is still an excellent preconditioner,
	// so iteration 0 can run as modified Newton without refactoring.
	carryFactor := h == st.lastH && st.lastIters <= 2
	w, err := e.newton(st.sys, xNew, carryFactor)
	e.work.NewtonIters += w.iters
	e.work.Factorizations += w.factors
	tr.Counter("spice.tran.newton_iters").Add(w.iters)
	w.record(tr)
	if w.factors > 0 {
		st.lastH = h
	}
	switch {
	case err == errNoConvergence:
		return nil, nil, fmt.Errorf("tran step no convergence (h=%.3g)", h)
	case err != nil:
		return nil, nil, fmt.Errorf("tran newton: %w", err)
	}
	return st.acceptStep(x, xNew, xPrev, h, int(w.iters))
}

// acceptStep finalizes a converged step: commits xNew into x and
// derives the new capacitor and inductor currents from the
// trapezoidal relation. The returned slices are the state's reusable
// buffers — callers consume them before the next step.
func (st *tranState) acceptStep(x, xNew, xPrev []float64, h float64, iters int) ([]float64, []float64, error) {
	st.lastIters = iters
	st.predH = h
	copy(st.predPrev, xPrev)
	st.havePred = true
	copy(x, xNew)
	for i, ce := range st.capElems {
		vNew := volt(xNew, ce.a) - volt(xNew, ce.b)
		vPrev := volt(xPrev, ce.a) - volt(xPrev, ce.b)
		st.iCap[i] = st.comps[i].geq*(vNew-vPrev) - ce.iPrev
	}
	for i, l := range st.e.inds {
		st.iInd[i] = xNew[l.br]
	}
	return st.iCap, st.iInd, nil
}
