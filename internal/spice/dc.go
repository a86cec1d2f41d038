package spice

import (
	"fmt"
	"math"
	"time"

	"primopt/internal/fault"
	"primopt/internal/numeric"
)

// Newton iteration limits and tolerances.
const (
	maxNewtonIters = 200
	vAbsTol        = 1e-6 // V
	vRelTol        = 1e-6
	dvLimit        = 0.3 // V per-iteration step clamp

	// bypassDvTol is the modified-Newton threshold: once an
	// iteration's largest node-voltage update falls below it, the
	// Jacobian has barely moved, so the next iteration keeps the last
	// factorization and solves against the fresh residual at the
	// current bias instead of refactoring. The fixed point is unchanged
	// — F(x) = 0 with fresh device evaluations — only the O(n³)
	// refactor is skipped. The value is an empirical wall-clock optimum
	// for the transient path, where a bypassed iteration computes its
	// residual without materializing the Jacobian and so costs only two
	// O(n²) passes plus the device evaluations: sweeps found a plateau
	// over [1.5e-2, 3e-2], with tighter values (2e-3) refactoring too
	// often and much looser ones (0.12) burning extra linearly-
	// converging iterations. The contraction guard below backstops
	// biases where the stale factorization converges slowly.
	bypassDvTol = 2e-2 // V
)

// solverScratch holds the per-engine DC Newton buffers, allocated on
// first use and reused by every OP/DCSweep solve so the tuning loop's
// repeated evaluations are allocation-free. The LU workspace also
// carries the pivot order across solves of the same topology.
type solverScratch struct {
	J      *numeric.Matrix
	rhs    []float64
	xNew   []float64
	resid  []float64
	rhsLin []float64 // source values, constant per solve
	ws     *numeric.Workspace
}

func (e *Engine) scratch() *solverScratch {
	if e.scr == nil {
		e.scr = &solverScratch{
			J:      numeric.NewMatrix(e.n),
			rhs:    make([]float64, e.n),
			xNew:   make([]float64, e.n),
			resid:  make([]float64, e.n),
			rhsLin: make([]float64, e.n),
			ws:     e.newWorkspace(),
		}
	}
	return e.scr
}

// residualOK verifies ‖J·x − rhs‖∞ against a scale-relative bound —
// the acceptance check for single-solve (linear) operating points.
func residualOK(J *numeric.Matrix, x, rhs []float64) bool {
	n := J.N
	scale := 0.0
	for _, v := range rhs {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	xn := x[:n]
	for i := 0; i < n; i++ {
		s := -rhs[i]
		row := J.Data[i*n : i*n+n]
		for j, jv := range row {
			s += jv * xn[j]
		}
		if math.Abs(s) > 1e-9*(1+scale) {
			return false
		}
	}
	return true
}

// OPResult is a DC operating point.
type OPResult struct {
	X []float64 // node voltages then branch currents
	e *Engine
}

// Volt returns the DC voltage of a net (0 for ground; 0 with no error
// for unknown nets — callers validate nets up front via the engine).
func (r *OPResult) Volt(net string) float64 {
	idx, ok := r.e.NodeIndex(net)
	if !ok {
		return 0
	}
	return volt(r.X, idx)
}

// Current returns the branch current through a named V source, VCVS,
// or inductor (positive current flows into the + terminal and out of
// the - terminal through the source).
func (r *OPResult) Current(name string) (float64, error) {
	i, ok := r.e.BranchIndex(name)
	if !ok {
		return 0, fmt.Errorf("spice: no branch current for %q", name)
	}
	return r.X[i], nil
}

// OP computes the DC operating point: plain Newton first, then gmin
// stepping, then source stepping. Capacitors are open, inductors are
// shorts (via their branch equations with zero voltage drop).
func (e *Engine) OP() (*OPResult, error) {
	tr := e.tr
	if !tr.Enabled() {
		return e.op()
	}
	t0 := time.Now() //lint:allow rngpurity trace-gated read feeding the spice.op.solve_ns histogram only; tracing is passive (obs doc)
	r, err := e.op()
	//lint:allow rngpurity trace-gated read feeding the spice.op.solve_ns histogram only; tracing is passive (obs doc)
	tr.Histogram("spice.op.solve_ns").Observe(float64(time.Since(t0).Nanoseconds()))
	tr.Counter("spice.op.runs").Inc()
	if err != nil {
		tr.Counter("spice.op.failures").Inc()
	}
	return r, err
}

func (e *Engine) op() (*OPResult, error) {
	if err := e.inj.Hit(e.ctx, fault.SiteSpiceOP); err != nil {
		return nil, fmt.Errorf("spice: OP for %s: %w", e.NL.Name, err)
	}
	x := make([]float64, e.n)
	// Plain Newton from zero with a modest gmin floor.
	if err := e.newtonDC(x, 1e-12, 1.0); err == nil {
		return &OPResult{X: x, e: e}, nil
	}
	// A canceled context fails every fallback stage too — surface it
	// directly instead of reporting a spurious convergence failure.
	if err := e.canceled(); err != nil {
		return nil, err
	}
	e.tr.Counter("spice.op.fallbacks").Inc()
	// gmin stepping: converge with a large shunt conductance, then
	// relax it geometrically, warm-starting each stage.
	for i := range x {
		x[i] = 0
	}
	ok := true
	for gmin := 1e-2; gmin >= 1e-12; gmin /= 10 {
		if err := e.newtonDC(x, gmin, 1.0); err != nil {
			ok = false
			break
		}
	}
	if ok {
		if err := e.newtonDC(x, 1e-12, 1.0); err == nil {
			return &OPResult{X: x, e: e}, nil
		}
	}
	// Source stepping: ramp all independent sources from 0.
	for i := range x {
		x[i] = 0
	}
	for _, scale := range []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0} {
		if err := e.newtonDC(x, 1e-9, scale); err != nil {
			return nil, fmt.Errorf("spice: OP failed for %s at source scale %.2f: %w",
				e.NL.Name, scale, err)
		}
	}
	if err := e.newtonDC(x, 1e-12, 1.0); err != nil {
		return nil, fmt.Errorf("spice: OP polish failed for %s: %w", e.NL.Name, err)
	}
	return &OPResult{X: x, e: e}, nil
}

// newtonDC runs damped Newton on the DC equations, updating x in
// place. gmin is a shunt conductance added at every MOS drain/source
// node; srcScale scales all independent sources.
func (e *Engine) newtonDC(x []float64, gmin, srcScale float64) error {
	n := e.n
	sc := e.scratch()
	J, rhs, xNew := sc.J, sc.rhs, sc.xNew
	tr := e.tr
	// An armed spice.dc site forces this solve down its genuine
	// nonconvergence path: same counter, same error text, so tests
	// of the escape hatches exercise the real recovery code.
	if err := e.inj.Hit(e.ctx, fault.SiteSpiceDC); err != nil {
		tr.Counter("spice.dc.nonconverged").Inc()
		return fmt.Errorf("no convergence in %d iterations: %w", maxNewtonIters, err)
	}
	var iters, reusedPiv, bypassed int64
	defer func() {
		tr.Counter("spice.dc.newton_iters").Add(iters)
		if reusedPiv > 0 {
			tr.Counter("spice.factor.reused").Add(reusedPiv)
		}
		if bypassed > 0 {
			tr.Counter("spice.newton.bypassed").Add(bypassed)
		}
	}()
	linear := len(e.mos) == 0
	haveFactor := false // sc.ws holds a factorization of this solve's J
	forceFactor := false
	lastMaxDv := math.Inf(1)
	// Only the transistors depend on the iterate: each iteration
	// copies the engine's time-invariant stamp (capacitors are open in
	// DC, and an inductor's branch row holds V+ - V- = 0) and the
	// source values, scaled once per solve, and stamps the MOS on top.
	for i := range sc.rhsLin {
		sc.rhsLin[i] = 0
	}
	addSources(e, sc.rhsLin, func(s *source) float64 { return srcScale * s.dc })
	for iter := 0; iter < maxNewtonIters; iter++ {
		if err := e.canceled(); err != nil {
			return err
		}
		iters = int64(iter) + 1
		copy(J.Data, e.base.Data)
		copy(rhs, sc.rhsLin)
		e.stampMOSDC(J, rhs, x, gmin)
		if linear {
			// No transistors: the system is linear in x, so a single
			// factor+solve is exact. Accept it as soon as the residual
			// confirms the solution — the old loop demanded a second
			// full iteration (and the 0.3 V damping clamp stretched a
			// 1 V supply over four) even though nothing could change.
			reused, err := e.factor(sc.ws, J)
			if err != nil {
				return fmt.Errorf("newton iter %d: %w", iter, err)
			}
			if reused {
				reusedPiv++
			}
			copy(xNew, rhs)
			sc.ws.SolveInPlace(xNew)
			if residualOK(J, xNew, rhs) {
				copy(x, xNew)
				return nil
			}
			// Residual check failed (numerically extreme deck): fall
			// back to the damped iteration below.
		}
		bypassThis := !linear && haveFactor && !forceFactor && lastMaxDv < bypassDvTol
		if bypassThis {
			// Modified Newton: keep the previous factorization as the
			// preconditioner, but compute the TRUE residual
			// F = J·x − rhs from the fresh stamps, so the fixed point
			// is still the exact solution of this iteration's system.
			bypassed++
			resid := sc.resid
			xn := x[:n]
			for i := 0; i < n; i++ {
				s := -rhs[i]
				row := J.Data[i*n : i*n+n]
				for j, jv := range row {
					s += jv * xn[j]
				}
				resid[i] = s
			}
			sc.ws.SolveInPlace(resid)
			for i := 0; i < n; i++ {
				xNew[i] = x[i] - resid[i]
			}
		} else if !linear {
			reused, err := e.factor(sc.ws, J)
			if err != nil {
				return fmt.Errorf("newton iter %d: %w", iter, err)
			}
			if reused {
				reusedPiv++
			}
			haveFactor = true
			forceFactor = false
			copy(xNew, rhs)
			sc.ws.SolveInPlace(xNew)
		}
		conv, maxDv := e.damp(x, xNew)
		// Bugfix: accept iteration-0 convergence. A warm-started point
		// (DC sweep continuation, gmin ladder stage) whose first
		// linearized solve already moves nothing is converged by the
		// same criterion every later iteration uses.
		if conv {
			return nil
		}
		// Contraction guard: a bypassed iteration must at least halve
		// the update, else the stale factorization has drifted too far
		// (modified Newton's linear rate is approaching 1, which can
		// stall just below the convergence threshold for hundreds of
		// iterations) — force a fresh factor next time around.
		if bypassThis && maxDv > 0.5*lastMaxDv {
			forceFactor = true
		}
		lastMaxDv = maxDv
	}
	tr.Counter("spice.dc.nonconverged").Inc()
	return fmt.Errorf("no convergence in %d iterations", maxNewtonIters)
}

// damp moves x toward the Newton solution sol, clamping each node
// voltage's change to dvLimit, and reports whether every change was
// within tolerance and the largest node voltage change it made.
// Branch currents converge with a looser check; they are linear given
// the voltages.
func (e *Engine) damp(x, sol []float64) (conv bool, maxDv float64) {
	conv = true
	for i := 0; i < e.n; i++ {
		dv := sol[i] - x[i]
		if i < e.numNodes {
			if dv > dvLimit {
				dv = dvLimit
			} else if dv < -dvLimit {
				dv = -dvLimit
			}
			a := math.Abs(dv)
			if a > maxDv {
				maxDv = a
			}
			if a > vAbsTol+vRelTol*math.Abs(x[i]) {
				conv = false
			}
		} else if math.Abs(dv) > 1e-9+1e-6*math.Abs(x[i]) {
			conv = false
		}
		x[i] += dv
	}
	return conv, maxDv
}

// stampMOSDC stamps the Newton-linearized transistors at bias x.
func (e *Engine) stampMOSDC(J *numeric.Matrix, rhs []float64, x []float64, gmin float64) {
	add := func(i, j int, g float64) {
		if i >= 0 && j >= 0 {
			J.Add(i, j, g)
		}
	}
	for mi := range e.mos {
		nd, ng, ns, nb := e.mosNode[mi][0], e.mosNode[mi][1], e.mosNode[mi][2], e.mosNode[mi][3]
		vd, vg, vs, vb := volt(x, nd), volt(x, ng), volt(x, ns), volt(x, nb)
		st := &e.mosState[mi]
		e.mosCtx[mi].EvalInto(st, vd, vg, vs, vb)
		// Linearized: i(v) ≈ Ids + G·(v - v0); MNA needs the Norton
		// equivalent: conductances G into J, and the residual
		// (G·v0 - Ids) onto the RHS.
		ieq := st.GdVd*vd + st.GdVg*vg + st.GdVs*vs + st.GdVb*vb - st.Ids
		cols := [4]int{nd, ng, ns, nb}
		gs := [4]float64{st.GdVd, st.GdVg, st.GdVs, st.GdVb}
		for c := 0; c < 4; c++ {
			add(nd, cols[c], gs[c])
			add(ns, cols[c], -gs[c])
		}
		if nd >= 0 {
			rhs[nd] += ieq
		}
		if ns >= 0 {
			rhs[ns] -= ieq
		}
		// gmin shunts stabilize floating/high-impedance nodes. A tiny
		// permanent floor on every terminal keeps nodes that have no
		// other DC path (e.g. capacitively driven gates) well-defined.
		g := gmin
		if g < 1e-12 {
			g = 1e-12
		}
		add(nd, nd, g)
		add(ns, ns, g)
		add(ng, ng, g)
		add(nb, nb, g)
	}
}

// addMOSResidual adds the transistor contributions to a Newton
// residual F = J·x − rhs evaluated at bias x, without building J: when
// the Jacobian and rhs are stamped at the same bias, the Norton
// linearization terms cancel and each device contributes exactly its
// channel current plus the gmin shunt currents. Device states land in
// e.mosState just as a stampMOSDC pass would leave them. This is the
// residual path of bypassed (modified-Newton) iterations.
func (e *Engine) addMOSResidual(resid, x []float64, gmin float64) {
	g := gmin
	if g < 1e-12 {
		g = 1e-12
	}
	for mi := range e.mos {
		nd, ng, ns, nb := e.mosNode[mi][0], e.mosNode[mi][1], e.mosNode[mi][2], e.mosNode[mi][3]
		vd, vg, vs, vb := volt(x, nd), volt(x, ng), volt(x, ns), volt(x, nb)
		st := &e.mosState[mi]
		e.mosCtx[mi].EvalInto(st, vd, vg, vs, vb)
		if nd >= 0 {
			resid[nd] += st.Ids + g*vd
		}
		if ns >= 0 {
			resid[ns] += -st.Ids + g*vs
		}
		if ng >= 0 {
			resid[ng] += g * vg
		}
		if nb >= 0 {
			resid[nb] += g * vb
		}
	}
}

// DeviceOP summarizes one transistor's operating point.
type DeviceOP struct {
	Name          string
	Vgs, Vds      float64
	Id            float64
	Gm, Gds       float64
	Region        string // "cutoff", "triode", "saturation"
	Cgs, Cgd, Cdb float64
}

// Devices returns the operating-point summary of every MOS device, in
// netlist order — the information designers read off a .op run.
func (r *OPResult) Devices() []DeviceOP {
	e := r.e
	out := make([]DeviceOP, 0, len(e.mos))
	for mi, d := range e.mos {
		nd, ng, ns, nb := e.mosNode[mi][0], e.mosNode[mi][1], e.mosNode[mi][2], e.mosNode[mi][3]
		vd, vg, vs, vb := volt(r.X, nd), volt(r.X, ng), volt(r.X, ns), volt(r.X, nb)
		st := e.mosCtx[mi].Eval(vd, vg, vs, vb)
		op := DeviceOP{
			Name: d.Name,
			Vgs:  vg - vs, Vds: vd - vs,
			Id: st.Ids, Gm: st.GdVg, Gds: st.GdVd,
			Cgs: st.Cgs, Cgd: st.Cgd, Cdb: st.Cdb,
		}
		// Region classification by magnitudes (PMOS handled via the
		// mirrored quantities).
		vgsEff, vdsEff := op.Vgs, op.Vds
		vth := e.Tech.VthN
		if d.Type.String() == "PMOS" {
			vgsEff, vdsEff = -vgsEff, -vdsEff
			vth = e.Tech.VthP
		}
		switch {
		case vgsEff < vth-0.05:
			// Below threshold: conducting devices (analog bias points
			// frequently live here) are "subthreshold", not cutoff.
			if absF(op.Id) > 10e-9 {
				op.Region = "subthreshold"
			} else {
				op.Region = "cutoff"
			}
		case vdsEff < vgsEff-vth:
			op.Region = "triode"
		default:
			op.Region = "saturation"
		}
		out = append(out, op)
	}
	return out
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
