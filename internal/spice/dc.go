package spice

import (
	"fmt"
	"time"

	"primopt/internal/fault"
	"primopt/internal/numeric"
)

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

// newtonDC runs Newton on the DC equations, updating x in place. gmin
// is a shunt conductance added at every MOS terminal; srcScale scales
// all independent sources.
func (e *Engine) newtonDC(x []float64, gmin, srcScale float64) error {
	tr := e.tr
	// An armed spice.dc site forces this solve down its genuine
	// nonconvergence path: same counter, same error text, so tests
	// of the escape hatches exercise the real recovery code.
	if err := e.inj.Hit(e.ctx, fault.SiteSpiceDC); err != nil {
		tr.Counter("spice.dc.nonconverged").Inc()
		return fmt.Errorf("%v: %w", errNoConvergence, err)
	}
	// The system is built on first use and reused by every OP and
	// DCSweep solve, so the tuning loop's repeated evaluations are
	// allocation-free; its workspace carries the pivot order across
	// solves of the same topology.
	if e.dc == nil {
		e.dc = newNewtonSystem(e.base, numeric.NewPatternWorkspace(e.pat))
		e.dc.stampResidual = true
	}
	s := e.dc
	s.gmin = gmin
	clear(s.b)
	addSources(e, s.b, func(src *source) float64 { return srcScale * src.dc })
	w, err := e.newton(s, x, false)
	tr.Counter("spice.dc.newton_iters").Add(w.iters)
	w.record(tr)
	if err == errNoConvergence {
		tr.Counter("spice.dc.nonconverged").Inc()
	}
	return err
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
