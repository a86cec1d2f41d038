package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestArgMin(t *testing.T) {
	i, v := ArgMin([]float64{3, 1, 2, 1})
	if i != 1 || v != 1 {
		t.Errorf("ArgMin = (%d, %g), want (1, 1)", i, v)
	}
	i, v = ArgMin([]float64{5})
	if i != 0 || v != 5 {
		t.Errorf("single-element ArgMin = (%d, %g)", i, v)
	}
}

func TestArgMinEmpty(t *testing.T) {
	i, v := ArgMin(nil)
	if i != -1 || !math.IsNaN(v) {
		t.Fatalf("ArgMin(nil) = (%d, %g), want (-1, NaN)", i, v)
	}
}

func TestIsMonotoneDecreasing(t *testing.T) {
	if !IsMonotoneDecreasing([]float64{5, 4, 3, 3, 2}, 1e-9) {
		t.Error("non-increasing sequence reported as not monotone")
	}
	if IsMonotoneDecreasing([]float64{5, 4, 4.5, 3}, 1e-9) {
		t.Error("increasing bump not detected")
	}
	if !IsMonotoneDecreasing([]float64{1}, 0) || !IsMonotoneDecreasing(nil, 0) {
		t.Error("trivial sequences should be monotone")
	}
	// Within-tolerance wiggle is accepted.
	if !IsMonotoneDecreasing([]float64{10, 5, 5.0000001, 1}, 1e-3) {
		t.Error("tolerance not applied")
	}
}

func TestKneeIndex(t *testing.T) {
	// Interior minimum: pick it.
	if k := KneeIndex([]float64{5, 3, 2, 2.5, 4}); k != 2 {
		t.Errorf("KneeIndex with minimum = %d, want 2", k)
	}
	// Monotone decreasing: the first point within 5% of the floor
	// (1.95*1.05 = 2.0475 -> index 4).
	ys := []float64{10, 4, 2.5, 2.1, 2.0, 1.95}
	if k := KneeIndex(ys); k != 4 {
		t.Errorf("monotone KneeIndex = %d, want 4", k)
	}
	// A curve that flattens early stops early.
	flat := []float64{10, 2.0, 1.99, 1.98, 1.97}
	if k := KneeIndex(flat); k != 1 {
		t.Errorf("flat KneeIndex = %d, want 1", k)
	}
	if k := KneeIndex(nil); k != 0 {
		t.Errorf("empty KneeIndex = %d", k)
	}
}

func TestLogspace(t *testing.T) {
	xs := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(xs[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("Logspace[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
	// The ends are exact, where 10^log10(a) misses 2e5 by an ulp.
	if xs := Logspace(2e5, 3e9, 7); xs[0] != 2e5 || xs[6] != 3e9 {
		t.Errorf("Logspace(2e5, 3e9) runs %v to %v", xs[0], xs[6])
	}
}

func TestCrossingLinear(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, -10}
	x, ok := CrossingLinear(xs, ys, 5)
	if !ok || math.Abs(x-0.5) > 1e-12 {
		t.Errorf("crossing at %g ok=%v, want 0.5", x, ok)
	}
	// Descending crossing of 0 between x=1 and x=2 at x=1.5 — but the
	// ascending segment crosses 0 at x=0 first.
	x, ok = CrossingLinear(xs, ys, 0)
	if !ok || x != 0 {
		t.Errorf("first zero crossing at %g, want 0", x)
	}
	if _, ok := CrossingLinear(xs, ys, 99); ok {
		t.Error("impossible crossing reported")
	}
}

// Property: KneeIndex always returns a valid index, and for curves
// with a strict interior minimum it returns exactly that minimum.
func TestKneeIndexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return KneeIndex(nil) == 0
		}
		ys := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ys[i] = math.Mod(math.Abs(v), 100)
		}
		k := KneeIndex(ys)
		return k >= 0 && k < len(ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
