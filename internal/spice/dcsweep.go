package spice

import (
	"fmt"
	"math"

	"primopt/internal/numeric"
)

// DCSweepResult holds a .dc source sweep: the swept values and the
// full solution vector at each point.
type DCSweepResult struct {
	Source string
	Values []float64
	X      [][]float64
	e      *Engine
}

// Volt returns the voltage transfer curve of a net over the sweep.
func (r *DCSweepResult) Volt(net string) []float64 {
	idx, ok := r.e.NodeIndex(net)
	if !ok {
		return make([]float64, len(r.Values))
	}
	out := make([]float64, len(r.Values))
	for k, x := range r.X {
		out[k] = volt(x, idx)
	}
	return out
}

// Current returns the branch current curve of a V/E/L device.
func (r *DCSweepResult) Current(name string) ([]float64, error) {
	i, ok := r.e.BranchIndex(name)
	if !ok {
		return nil, fmt.Errorf("spice: no branch current for %q", name)
	}
	out := make([]float64, len(r.Values))
	for k, x := range r.X {
		out[k] = x[i]
	}
	return out, nil
}

// DCSweep steps the DC value of the named V or I source from start to
// stop (inclusive, step > 0 ascending or < 0 descending) and solves
// the operating point at each value, warm-starting each point from
// the previous solution for fast, continuation-style convergence.
func (e *Engine) DCSweep(srcName string, start, stop, step float64) (*DCSweepResult, error) {
	if step == 0 {
		return nil, fmt.Errorf("spice: zero DC sweep step")
	}
	if (stop-start)*step < 0 {
		return nil, fmt.Errorf("spice: DC sweep step direction disagrees with range [%g, %g]", start, stop)
	}
	src := e.sourceNamed(srcName)
	if src == nil {
		return nil, fmt.Errorf("spice: DC sweep source %q not found (must be V or I)", srcName)
	}
	// The sweep steps the engine's compiled value, never the caller's
	// netlist, and restores it when done.
	orig := src.dc
	defer func() { src.dc = orig }()

	// A stop within a tiny fraction of a step of the grid is its last
	// point, though the quotient rounds just below it (0.7/0.1 is
	// 6.999…); the clamp below then lands that point on stop exactly.
	nPts := int((stop-start)/step+1e-9) + 1
	if nPts < 1 {
		nPts = 1
	}
	res := &DCSweepResult{Source: srcName, e: e}
	x := make([]float64, e.n)
	for k := 0; k < nPts; k++ {
		v := start + float64(k)*step
		// Clamp the final point onto stop exactly.
		if (step > 0 && v > stop) || (step < 0 && v < stop) {
			v = stop
		}
		src.dc = v
		// Warm-start continuation; fall back to a full OP (with gmin
		// and source stepping) on the first point or on failure.
		if k == 0 {
			op, err := e.OP()
			if err != nil {
				return nil, fmt.Errorf("spice: DC sweep at %g: %w", v, err)
			}
			copy(x, op.X)
		} else if err := e.newtonDC(x, 1e-12, 1.0); err != nil {
			op, err2 := e.OP()
			if err2 != nil {
				return nil, fmt.Errorf("spice: DC sweep at %g: %w", v, err)
			}
			copy(x, op.X)
		}
		res.Values = append(res.Values, v)
		res.X = append(res.X, append([]float64(nil), x...))
	}
	return res, nil
}

// TransferGain estimates the peak small-signal DC gain dV(out)/dV(in)
// over the sweep: the central-difference slope of largest magnitude
// (the switching-region gain for inverter-like transfer curves).
func (r *DCSweepResult) TransferGain(net string) (float64, error) {
	if len(r.Values) < 3 {
		return 0, fmt.Errorf("spice: sweep too short for a derivative")
	}
	v := r.Volt(net)
	best := 0.0
	found := false
	for i := 1; i < len(v)-1; i++ {
		dx := r.Values[i+1] - r.Values[i-1]
		if dx == 0 {
			continue
		}
		g := (v[i+1] - v[i-1]) / dx
		if !found || math.Abs(g) > math.Abs(best) {
			best = g
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("spice: degenerate sweep spacing")
	}
	return best, nil
}

// SwitchingThreshold returns the sweep value where V(net) crosses
// level (first crossing, interpolated).
func (r *DCSweepResult) SwitchingThreshold(net string, level float64) (float64, error) {
	v := r.Volt(net)
	x, ok := numeric.CrossingLinear(r.Values, v, level)
	if !ok {
		return 0, fmt.Errorf("spice: V(%s) never crosses %g over the sweep", net, level)
	}
	return x, nil
}
