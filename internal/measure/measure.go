// Package measure extracts the circuit-level performance metrics the
// paper reports (Tables VI, VII; Fig. 2) from simulator results:
// gain, unity-gain frequency, 3-dB bandwidth, and phase margin from AC
// sweeps; delays, oscillation frequency, and average power from
// transients; and currents from operating points.
package measure

import (
	"fmt"
	"math"
	"math/cmplx"

	"primopt/internal/spice"
)

// ACMetrics summarizes a single-output AC transfer curve, assuming a
// unit AC input so |V(out)| is the gain.
type ACMetrics struct {
	GainDB         float64 // low-frequency gain, dB
	Gain           float64 // low-frequency gain, linear
	UGF            float64 // unity-gain frequency, Hz (0 if gain < 1 everywhere)
	F3dB           float64 // -3 dB bandwidth, Hz
	PhaseMarginDeg float64 // 180 + phase at UGF (0 if no UGF)
}

// ACOf computes the AC metrics for a net in an AC result.
func ACOf(res *spice.ACResult, net string) (ACMetrics, error) {
	n := len(res.Freqs)
	if n < 2 {
		return ACMetrics{}, fmt.Errorf("measure: AC sweep too short")
	}
	mag := make([]float64, n)
	db := make([]float64, n)
	ph := make([]float64, n)
	for k := 0; k < n; k++ {
		v := res.Volt(net, k)
		mag[k] = cmplx.Abs(v)
		if mag[k] <= 0 {
			return ACMetrics{}, fmt.Errorf("measure: zero response on %s", net)
		}
		db[k] = 20 * math.Log10(mag[k])
		ph[k] = cmplx.Phase(v) * 180 / math.Pi
	}
	unwrapPhase(ph)

	m := ACMetrics{Gain: mag[0], GainDB: db[0]}

	// -3 dB bandwidth: first crossing below GainDB - 3.
	if f, ok := firstCrossingDown(res.Freqs, db, m.GainDB-3.0103); ok {
		m.F3dB = f
	}
	// UGF: first crossing below 0 dB.
	if f, ok := firstCrossingDown(res.Freqs, db, 0); ok && m.GainDB > 0 {
		m.UGF = f
		phUGF := interpAtLog(res.Freqs, ph, f)
		// Phase margin relative to the unwrapped low-frequency phase:
		// an inverting amplifier starts at ±180°, and PM is measured
		// as the distance of the additional phase lag from 180°.
		lag := math.Abs(phUGF - ph[0])
		m.PhaseMarginDeg = 180 - lag
	}
	return m, nil
}

// unwrapPhase removes ±360° jumps in place.
func unwrapPhase(ph []float64) {
	offset := 0.0
	for i := 1; i < len(ph); i++ {
		d := ph[i] + offset - ph[i-1]
		for d > 180 {
			offset -= 360
			d -= 360
		}
		for d < -180 {
			offset += 360
			d += 360
		}
		ph[i] += offset
	}
}

// firstCrossingDown finds the first frequency where ys falls below
// level (log-interpolated in x).
func firstCrossingDown(xs, ys []float64, level float64) (float64, bool) {
	for i := 1; i < len(ys); i++ {
		if ys[i-1] >= level && ys[i] < level {
			f := (level - ys[i-1]) / (ys[i] - ys[i-1])
			return xs[i-1] * math.Pow(xs[i]/xs[i-1], f), true
		}
	}
	return 0, false
}

// interpAtLog interpolates ys at x over log-spaced xs.
func interpAtLog(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	for i := 1; i < n; i++ {
		if xs[i] >= x {
			f := math.Log(x/xs[i-1]) / math.Log(xs[i]/xs[i-1])
			return ys[i-1] + f*(ys[i]-ys[i-1])
		}
	}
	return ys[n-1]
}

// Delay returns the time from trig crossing trigVal (direction
// "rise"/"fall"/"cross") to targ's subsequent crossing of targVal.
func Delay(res *spice.TranResult, trig string, trigVal float64, trigDir string,
	targ string, targVal float64, targDir string) (float64, error) {
	t0, err := CrossingTime(res, trig, trigVal, trigDir, 1, 0)
	if err != nil {
		return 0, fmt.Errorf("measure: delay trigger: %w", err)
	}
	t1, err := CrossingTime(res, targ, targVal, targDir, 1, t0)
	if err != nil {
		return 0, fmt.Errorf("measure: delay target: %w", err)
	}
	return t1 - t0, nil
}

// CrossingTime returns the time of the nth crossing of val on net in
// the given direction at or after tMin.
func CrossingTime(res *spice.TranResult, net string, val float64, dir string, nth int, tMin float64) (float64, error) {
	v := res.Volt(net)
	count := 0
	for i := 1; i < len(v); i++ {
		if res.Times[i] < tMin {
			continue
		}
		rising := v[i-1] < val && v[i] >= val
		falling := v[i-1] > val && v[i] <= val
		hit := false
		switch dir {
		case "rise":
			hit = rising
		case "fall":
			hit = falling
		default:
			hit = rising || falling
		}
		if !hit {
			continue
		}
		count++
		if count == nth {
			f := (val - v[i-1]) / (v[i] - v[i-1])
			return res.Times[i-1] + f*(res.Times[i]-res.Times[i-1]), nil
		}
	}
	return 0, fmt.Errorf("measure: crossing %d of %g on %s not found", nth, val, net)
}

// OscFrequency estimates the oscillation frequency of net by averaging
// the period over rising crossings of level within [tStart, end].
// It needs at least three rising crossings.
func OscFrequency(res *spice.TranResult, net string, level, tStart float64) (float64, error) {
	v := res.Volt(net)
	var times []float64
	for i := 1; i < len(v); i++ {
		if res.Times[i] < tStart {
			continue
		}
		if v[i-1] < level && v[i] >= level {
			f := (level - v[i-1]) / (v[i] - v[i-1])
			times = append(times, res.Times[i-1]+f*(res.Times[i]-res.Times[i-1]))
		}
	}
	if len(times) < 3 {
		return 0, fmt.Errorf("measure: only %d rising crossings on %s; not oscillating", len(times), net)
	}
	period := (times[len(times)-1] - times[0]) / float64(len(times)-1)
	if period <= 0 {
		return 0, fmt.Errorf("measure: non-positive period on %s", net)
	}
	return 1 / period, nil
}

// AvgSupplyPower returns the average power delivered by the named
// supply source over [from, to]: Vdd × avg(−I(source)), using the
// SPICE sign convention where a delivering source has negative branch
// current.
func AvgSupplyPower(res *spice.TranResult, srcName string, vdd, from, to float64) (float64, error) {
	iv, err := res.Current(srcName)
	if err != nil {
		return 0, err
	}
	sum, span := 0.0, 0.0
	for i := 1; i < len(iv); i++ {
		t0, t1 := res.Times[i-1], res.Times[i]
		if t1 < from || t0 > to {
			continue
		}
		dt := t1 - t0
		sum += dt * (iv[i-1] + iv[i]) / 2
		span += dt
	}
	if span == 0 {
		return 0, fmt.Errorf("measure: empty power window [%g, %g]", from, to)
	}
	return -vdd * sum / span, nil
}

// SupplyCurrent returns the DC current drawn from a supply source
// (positive for a delivering supply).
func SupplyCurrent(op *spice.OPResult, srcName string) (float64, error) {
	i, err := op.Current(srcName)
	if err != nil {
		return 0, err
	}
	return -i, nil
}

// PeakToPeak returns max-min of a net's waveform after tStart.
func PeakToPeak(res *spice.TranResult, net string, tStart float64) float64 {
	v := res.Volt(net)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, t := range res.Times {
		if t < tStart {
			continue
		}
		lo = math.Min(lo, v[i])
		hi = math.Max(hi, v[i])
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
