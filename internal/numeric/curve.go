package numeric

import "math"

// Curve utilities for the tuning/port-optimization stopping rules.
// The paper stops wire-width sweeps either at the cost minimum, or —
// for monotonically decreasing cost — at the point of maximum
// curvature (the "knee"), beyond which extra parallel wires buy
// little. Sample points are the integer wire counts 1, 2, 3, ...

// ArgMin returns the index of the smallest value in ys (first on ties)
// and that value. An empty slice yields (-1, NaN) rather than
// panicking; callers that cannot see an empty input may ignore the
// sentinel.
func ArgMin(ys []float64) (int, float64) {
	if len(ys) == 0 {
		return -1, math.NaN()
	}
	bi, bv := 0, ys[0]
	for i, v := range ys[1:] {
		if v < bv {
			bi, bv = i+1, v
		}
	}
	return bi, bv
}

// IsMonotoneDecreasing reports whether ys is non-increasing to within
// tolerance tol (relative to the overall range).
func IsMonotoneDecreasing(ys []float64, tol float64) bool {
	if len(ys) < 2 {
		return true
	}
	lo, hi := ys[0], ys[0]
	for _, v := range ys {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	eps := (hi - lo) * tol
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+eps {
			return false
		}
	}
	return true
}

// KneeIndex returns the stopping index for a cost sweep per the
// paper's rule: the global minimum if the curve has an interior
// minimum, otherwise (monotonically decreasing curve) the knee —
// realized as the first point whose cost is within tolerance of the
// eventual floor, i.e. where further increases buy almost nothing.
// (A raw maximum-curvature rule misfires on steep 1/n-shaped cost
// curves, stopping while the cost is still falling fast.)
func KneeIndex(ys []float64) int {
	if len(ys) == 0 {
		return 0
	}
	if IsMonotoneDecreasing(ys, 1e-9) {
		return WithinOfMinIndex(ys, 0.05)
	}
	i, _ := ArgMin(ys)
	return i
}

// WithinOfMinIndex returns the first index whose value is within
// rel (relative) of the minimum of ys.
func WithinOfMinIndex(ys []float64, rel float64) int {
	if len(ys) == 0 {
		return 0
	}
	_, minV := ArgMin(ys)
	thresh := minV * (1 + rel)
	if minV <= 0 {
		thresh = minV + rel
	}
	for i, v := range ys {
		if v <= thresh {
			return i
		}
	}
	return len(ys) - 1
}

// Logspace returns n log-spaced points from a to b inclusive, the ends
// exactly a and b (10^log10(a) misses most a by an ulp); a and b must
// be positive.
func Logspace(a, b float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{a}
	}
	la, lb := math.Log10(a), math.Log10(b)
	out := make([]float64, n)
	step := (lb - la) / float64(n-1)
	for i := range out {
		out[i] = math.Pow(10, la+float64(i)*step)
	}
	out[0], out[n-1] = a, b
	return out
}

// CrossingLinear returns the x where the piecewise-linear curve
// (xs, ys) first crosses level y going in either direction, and true;
// or 0, false when it never crosses. xs must be ascending.
func CrossingLinear(xs, ys []float64, y float64) (float64, bool) {
	for i := 1; i < len(xs); i++ {
		y0, y1 := ys[i-1], ys[i]
		if (y0-y)*(y1-y) <= 0 && y0 != y1 {
			t := (y - y0) / (y1 - y0)
			return xs[i-1] + t*(xs[i]-xs[i-1]), true
		}
		if y0 == y {
			return xs[i-1], true
		}
	}
	return 0, false
}
