package spice

import (
	"fmt"
	"math"
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
	// MaxInternalStep caps the internal integration step; defaults to
	// the print step.
	MaxInternalStep float64
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

	// Scratch buffers reused across steps.
	J      *numeric.Matrix
	Jlin   *numeric.Matrix // base + companion stamps, constant per step
	rhsLin []float64
	rhs    []float64
	sol    []float64
	xNew   []float64
	xPrev  []float64
	xTry   []float64
	resid  []float64
	comps  []capComp
	icomps []indComp
	iCap   []float64
	iInd   []float64

	// ws carries the LU factorization (and pivot order) across Newton
	// iterations AND across steps: when the waveform moves slowly the
	// next step's first iteration can solve against the previous
	// step's factorization (modified Newton) without refactoring.
	ws         *numeric.Workspace
	haveFactor bool
	lastH      float64 // step size the current factorization was built at
	lastIters  int     // Newton iterations the previous accepted step took

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
		J:      numeric.NewMatrix(e.n),
		Jlin:   numeric.NewMatrix(e.n),
		rhsLin: make([]float64, e.n),
		rhs:    make([]float64, e.n),
		sol:    make([]float64, e.n),
		xNew:   make([]float64, e.n),
		xPrev:  make([]float64, e.n),
		xTry:   make([]float64, e.n),
		resid:  make([]float64, e.n),
		ws:     e.tranWorkspace(),
	}
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

	h := tstep
	if opts.MaxInternalStep > 0 && opts.MaxInternalStep < h {
		h = opts.MaxInternalStep
	}
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
		if err := st.advanceTo(x, t, tNext, h, 0); err != nil {
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
	if err := e.canceled(); err != nil {
		return nil, nil, err
	}
	// An armed spice.tran.step site fails this step like a Newton
	// nonconvergence would, driving the recursive halving path; armed
	// @N+ it exhausts the halving depth and stalls the analysis.
	if err := e.inj.Hit(e.ctx, fault.SiteSpiceTranStep); err != nil {
		return nil, nil, fmt.Errorf("tran step no convergence (h=%.3g): %w", h, err)
	}
	n := e.n
	J := st.J
	rhs := st.rhs
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
	var iters, reusedPiv, bypassed int64
	defer func() {
		tr.Counter("spice.tran.newton_iters").Add(iters)
		if reusedPiv > 0 {
			tr.Counter("spice.factor.reused").Add(reusedPiv)
		}
		if bypassed > 0 {
			tr.Counter("spice.newton.bypassed").Add(bypassed)
		}
	}()
	linear := len(e.mos) == 0
	// Cross-step continuation: when the previous step converged fast
	// (the waveform is in a smooth region) and the step size hasn't
	// changed, its factorization is still an excellent preconditioner,
	// so iteration 0 can run as modified Newton without refactoring.
	// The convergence test below is against the freshly-stamped
	// residual, so acceptance is as sound as after a fresh factor.
	carryFactor := st.haveFactor && h == st.lastH && st.lastIters <= 2 && !linear
	forceFactor := false
	lastMaxDv := math.Inf(1)
	// Everything except the MOS stamps — the engine's time-invariant
	// stamp, the sources at tNew, and the trapezoidal companions — is
	// constant across this step's Newton iterations. Stamp it once
	// into Jlin/rhsLin and memcpy per iteration; only the transistors
	// are re-linearized at the moving iterate.
	Jlin, rhsLin := st.Jlin, st.rhsLin
	copy(Jlin.Data, e.base.Data)
	for i := range rhsLin {
		rhsLin[i] = 0
	}
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
	for iter := 0; iter < maxNewtonIters; iter++ {
		iters = int64(iter) + 1
		sol := st.sol
		if linear {
			// No transistors: Jlin/rhsLin already ARE the full system,
			// so factor and solve them directly — one factor+solve is
			// exact once the residual confirms it.
			reused, err := e.factor(st.ws, Jlin)
			if err != nil {
				return nil, nil, fmt.Errorf("tran newton: %w", err)
			}
			if reused {
				reusedPiv++
			}
			st.haveFactor = true
			st.lastH = h
			copy(sol, rhsLin)
			st.ws.SolveInPlace(sol)
			if residualOK(Jlin, sol, rhsLin) {
				copy(xNew, sol)
				return st.acceptStep(x, xNew, xPrev, h, int(iters))
			}
		}
		bypassThis := !linear && !forceFactor &&
			((iter == 0 && carryFactor) || (iter > 0 && lastMaxDv < bypassDvTol))
		if bypassThis {
			// Modified Newton against the true residual at bias xNew;
			// only the O(n³) refactor is skipped. Because the Jacobian
			// and rhs would both be stamped at the same bias, the Norton
			// linearization terms cancel from F = J·x − rhs: what
			// remains is the linear part plus each device's current and
			// gmin shunts. The full Jacobian is never materialized here,
			// saving the n² copy and stamp per bypassed iteration, and
			// the linear part walks only the pattern's entries.
			bypassed++
			resid := st.resid
			e.pat.Residual(Jlin, xNew, rhsLin, resid)
			e.addMOSResidual(resid, xNew, 1e-12)
			st.ws.SolveInPlace(resid)
			for i := 0; i < n; i++ {
				sol[i] = xNew[i] - resid[i]
			}
		} else if !linear {
			copy(J.Data, Jlin.Data)
			copy(rhs, rhsLin)
			e.stampMOSDC(J, rhs, xNew, 1e-12)
			reused, err := e.factor(st.ws, J)
			if err != nil {
				return nil, nil, fmt.Errorf("tran newton: %w", err)
			}
			if reused {
				reusedPiv++
			}
			st.haveFactor = true
			st.lastH = h
			forceFactor = false
			copy(sol, rhs)
			st.ws.SolveInPlace(sol)
		}
		conv, maxDv := e.damp(xNew, sol)
		// Iteration-0 convergence is accepted: the criterion (the
		// fresh linearized system moves nothing) is the same one every
		// later iteration uses, and warm-started steps routinely meet
		// it immediately.
		if conv {
			return st.acceptStep(x, xNew, xPrev, h, int(iters))
		}
		// Contraction guard (see newtonDC): a bypassed iteration must
		// at least halve the update or the next one factors fresh.
		if bypassThis && maxDv > 0.5*lastMaxDv {
			forceFactor = true
		}
		lastMaxDv = maxDv
	}
	return nil, nil, fmt.Errorf("tran step no convergence (h=%.3g)", h)
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
