package spice

import (
	"fmt"
	"math"

	"primopt/internal/numeric"
	"primopt/internal/obs"
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
	// converging iterations. The contraction guard in newton backstops
	// biases where the stale factorization converges slowly.
	bypassDvTol = 2e-2 // V
)

// errNoConvergence is the error newton returns, unwrapped, when its
// iterations run out.
var errNoConvergence = fmt.Errorf("no convergence in %d iterations", maxNewtonIters)

// newtonSystem is the Newton problem of one analysis, apart from the
// iterate: the part of the MNA system that does not depend on the
// iterate, onto which every iteration stamps the transistors
// linearized at the iterate, and the buffers and LU workspace the
// iteration runs in. The operating point keeps one per engine, a
// transient run one for all its steps.
type newtonSystem struct {
	// A and b are the iterate-independent matrix and right-hand side:
	// the engine's base and the scaled sources for the operating point
	// (capacitors are open in DC, and an inductor's branch row holds
	// V+ − V− = 0), and for a transient step Jlin and rhsLin, which add
	// the sources at t+h and the trapezoidal companions.
	A *numeric.Matrix
	b []float64
	// gmin is the shunt conductance stamped at every transistor
	// terminal, floored at 1e-12.
	gmin float64
	// stampResidual selects how a bypassed iteration forms its
	// residual F = J·x − rhs. Set, it stamps J and rhs at the iterate
	// and walks them, as the operating point does. Unset, it walks A
	// and adds each transistor's current (addMOSResidual), which skips
	// the n² copy and the stamp, as the transient step does. The two
	// agree to rounding, not bit for bit
	// (TestBypassResidualFormsAgree): giving the operating point the
	// step's form moves every pinned layout and the DC iteration
	// counts, so that fold waits for a change that re-pins results
	// anyway.
	stampResidual bool

	J     *numeric.Matrix // A plus the transistors linearized at the iterate
	rhs   []float64       // b plus their Norton currents
	sol   []float64       // the iteration's Newton solution
	resid []float64       // a residual, then a bypassed iteration's update
	ws    *numeric.Workspace
}

// newNewtonSystem returns a system over A, with a zero right-hand side,
// that factors in ws.
func newNewtonSystem(A *numeric.Matrix, ws *numeric.Workspace) *newtonSystem {
	n := A.N
	return &newtonSystem{
		A:     A,
		b:     make([]float64, n),
		J:     numeric.NewMatrix(n),
		rhs:   make([]float64, n),
		sol:   make([]float64, n),
		resid: make([]float64, n),
		ws:    ws,
	}
}

// newtonWork counts what one newton call did: its iterations, its
// factorizations, those that replayed a pivot order, and its bypassed
// iterations.
type newtonWork struct {
	iters, factors, reused, bypassed int64
}

// record adds w's reused pivot orders and bypassed iterations to tr,
// under the names both analyses share; each counts w.iters under its
// own name.
func (w newtonWork) record(tr *obs.Trace) {
	if w.reused > 0 {
		tr.Counter("spice.factor.reused").Add(w.reused)
	}
	if w.bypassed > 0 {
		tr.Counter("spice.newton.bypassed").Add(w.bypassed)
	}
}

// newton runs damped Newton on s from the iterate x, leaving the
// solution in x. carried says that s.ws holds a factorization of a
// nearby matrix that the first iteration may solve against, as a
// transient step carries one from the step before. It returns the
// context's error when the engine's context is done, a factorization
// error, or errNoConvergence.
func (e *Engine) newton(s *newtonSystem, x []float64, carried bool) (w newtonWork, err error) {
	linear := len(e.mos) == 0
	haveFactor := carried && !linear // s.ws holds a factorization a bypass may solve against
	forceFactor := false
	lastMaxDv := math.Inf(1)
	for iter := 0; iter < maxNewtonIters; iter++ {
		if err := e.canceled(); err != nil {
			return w, err
		}
		w.iters++
		if linear {
			// No transistors: A and b are the whole system, so one
			// factor and solve is exact once the residual confirms it.
			// A numerically extreme deck whose residual check fails
			// falls through to the damped update.
			if err := e.factor(s.ws, s.A, &w); err != nil {
				return w, fmt.Errorf("newton iter %d: %w", iter, err)
			}
			copy(s.sol, s.b)
			s.ws.SolveInPlace(s.sol)
			if residualOK(e.pat, s.A, s.sol, s.b, s.resid) {
				copy(x, s.sol)
				return w, nil
			}
		}
		bypass := haveFactor && !forceFactor && (iter == 0 || lastMaxDv < bypassDvTol)
		if bypass {
			// Modified Newton: keep the factorization as the
			// preconditioner, but solve against the TRUE residual at
			// the iterate, so the fixed point is still the exact
			// solution of this iteration's system and acceptance is as
			// sound as after a fresh factor.
			w.bypassed++
			s.residual(e, x)
			s.ws.SolveInPlace(s.resid)
			for i, r := range s.resid {
				s.sol[i] = x[i] - r
			}
		} else if !linear {
			s.stamp(e, x)
			if err := e.factor(s.ws, s.J, &w); err != nil {
				return w, fmt.Errorf("newton iter %d: %w", iter, err)
			}
			haveFactor, forceFactor = true, false
			copy(s.sol, s.rhs)
			s.ws.SolveInPlace(s.sol)
		}
		// Iteration-0 convergence is accepted: a warm-started iterate
		// (a DC sweep point, a gmin ladder stage, a predicted step)
		// whose first linearized solve already moves nothing is
		// converged by the same criterion every later iteration uses.
		conv, maxDv := e.damp(x, s.sol)
		if conv {
			return w, nil
		}
		// Contraction guard: a bypassed iteration must at least halve
		// the update, else the stale factorization has drifted too far
		// (modified Newton's linear rate is approaching 1, which can
		// stall just below the convergence threshold for hundreds of
		// iterations) — force a fresh factor next time around.
		if bypass && maxDv > 0.5*lastMaxDv {
			forceFactor = true
		}
		lastMaxDv = maxDv
	}
	return w, errNoConvergence
}

// stamp loads J and rhs: A and b plus the transistors linearized at x.
func (s *newtonSystem) stamp(e *Engine, x []float64) {
	copy(s.J.Data, s.A.Data)
	copy(s.rhs, s.b)
	e.stampMOSDC(s.J, s.rhs, x, s.gmin)
}

// residual writes the Newton residual F = J·x − rhs at x into s.resid,
// in the form stampResidual selects. Both walk the engine's pattern,
// which sums each row as the dense product does (Pattern.Residual).
func (s *newtonSystem) residual(e *Engine, x []float64) {
	if s.stampResidual {
		s.stamp(e, x)
		e.pat.Residual(s.J, x, s.rhs, s.resid)
		return
	}
	e.pat.Residual(s.A, x, s.b, s.resid)
	e.addMOSResidual(s.resid, x, s.gmin)
}

// residualOK verifies ‖A·x − b‖∞ against a scale-relative bound — the
// acceptance check for single-solve (linear) systems — leaving the
// residual in r. A residual that is not a number fails it.
func residualOK(p *numeric.Pattern, A *numeric.Matrix, x, b, r []float64) bool {
	scale := 0.0
	for _, v := range b {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	p.Residual(A, x, b, r)
	for _, v := range r {
		if !(math.Abs(v) <= 1e-9*(1+scale)) {
			return false
		}
	}
	return true
}

// damp moves x toward the Newton solution sol, clamping each node
// voltage's change to dvLimit, and reports whether every change was
// within tolerance and the largest node voltage change it made.
// Branch currents converge with a looser check; they are linear given
// the voltages. A change that is not a number is never within
// tolerance, so a non-finite solution cannot converge.
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
			if !(a <= vAbsTol+vRelTol*math.Abs(x[i])) {
				conv = false
			}
		} else if !(math.Abs(dv) <= 1e-9+1e-6*math.Abs(x[i])) {
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
// e.mosState just as a stampMOSDC pass would leave them.
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
