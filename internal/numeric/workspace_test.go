package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSystem builds a random, diagonally-boosted (well-conditioned)
// n×n system from r.
func randSystem(r *rand.Rand, n int) (*Matrix, []float64) {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
		m.Add(i, i, float64(n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return m, b
}

func residualInf(m *Matrix, x, b []float64) float64 {
	res := 0.0
	for i := 0; i < m.N; i++ {
		s := -b[i]
		for j := 0; j < m.N; j++ {
			s += m.At(i, j) * x[j]
		}
		if a := math.Abs(s); a > res {
			res = a
		}
	}
	return res
}

func TestWorkspaceFactorIntoReuse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 6
	m, b := randSystem(r, n)
	w := NewWorkspace(n)

	// First factorization has no history to reuse.
	reused, err := w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first FactorInto reported reused pivots")
	}
	x := append([]float64(nil), b...)
	w.SolveInPlace(x)
	if res := residualInf(m, x, b); res > 1e-10 {
		t.Errorf("fresh-pivot residual = %g", res)
	}

	// Refactoring the same matrix must recycle the pivot order and
	// produce the same solution bit for bit.
	reused, err = w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("identical matrix did not reuse pivots")
	}
	x2 := append([]float64(nil), b...)
	w.SolveInPlace(x2)
	for i := range x {
		if x[i] != x2[i] {
			t.Fatalf("reused-pivot solve differs at %d: %g vs %g", i, x[i], x2[i])
		}
	}

	// A small perturbation keeps the same pivot order viable.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Add(i, j, 1e-6*r.NormFloat64())
		}
	}
	reused, err = w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("perturbed matrix did not reuse pivots")
	}
	x3 := append([]float64(nil), b...)
	w.SolveInPlace(x3)
	if res := residualInf(m, x3, b); res > 1e-10 {
		t.Errorf("reused-pivot residual = %g", res)
	}

	// Invalidate forces fresh pivoting.
	w.Invalidate()
	reused, err = w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("FactorInto reused pivots after Invalidate")
	}
}

// TestWorkspacePivotFallback drives the growth check: after factoring
// a matrix whose pivot order is the identity, a matrix that demands
// row swaps must be detected and re-pivoted fresh — and still solved
// accurately.
func TestWorkspacePivotFallback(t *testing.T) {
	n := 3
	w := NewWorkspace(n)
	// Strongly diagonal matrix: no swaps recorded.
	d := NewMatrix(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 10)
	}
	if _, err := w.FactorInto(d); err != nil {
		t.Fatal(err)
	}
	// Zero diagonal head forces pivoting; the identity order dies at
	// the growth check.
	m := NewMatrix(n)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	m.Set(2, 2, 1)
	reused, err := w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("growth check failed to reject a stale pivot order")
	}
	b := []float64{2, 3, 5}
	x := append([]float64(nil), b...)
	w.SolveInPlace(x)
	want := []float64{3, 2, 5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// Property: random well-conditioned systems stay below tolerance in
// ‖Ax − b‖∞ under BOTH the fresh-pivot and reused-pivot paths.
func TestWorkspaceResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		m, b := randSystem(r, n)
		w := NewWorkspace(n)
		if _, err := w.FactorInto(m); err != nil {
			return false
		}
		x := append([]float64(nil), b...)
		w.SolveInPlace(x)
		if residualInf(m, x, b) > 1e-9 {
			return false
		}
		// Perturb mildly and refactor: usually the reused-pivot path,
		// and the residual bound must hold either way.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Add(i, j, 1e-4*r.NormFloat64())
			}
		}
		if _, err := w.FactorInto(m); err != nil {
			return false
		}
		x2 := append([]float64(nil), b...)
		w.SolveInPlace(x2)
		return residualInf(m, x2, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCWorkspaceReuseAndResidual(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	n := 5
	m := NewCMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
		m.Add(i, i, complex(float64(2*n), 0))
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	w := NewCWorkspace(n)
	reused, err := w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first complex FactorInto reported reused pivots")
	}
	x := append([]complex128(nil), b...)
	w.SolveInPlace(x)
	res := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		for j := 0; j < n; j++ {
			s += m.At(i, j) * x[j]
		}
		if a := math.Hypot(real(s), imag(s)); a > res {
			res = a
		}
	}
	if res > 1e-10 {
		t.Errorf("complex residual = %g", res)
	}
	// Same matrix again: pivot order recycles.
	reused, err = w.FactorInto(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("identical complex matrix did not reuse pivots")
	}
}

// TestSolveZeroAllocs pins the allocation-free contract of the solve
// path: Workspace.Solve, and the full FactorInto+SolveInPlace cycle
// (the per-Newton-iteration work) of both workspaces, fresh pivoting
// included, must not allocate.
func TestSolveZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 12
	m, b := randSystem(r, n)
	x := make([]float64, n)

	cm := NewCMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cm.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
		cm.Add(i, i, complex(float64(2*n), 0))
	}
	cb := make([]complex128, n)
	for i := range cb {
		cb[i] = complex(r.NormFloat64(), 0)
	}
	cx := make([]complex128, n)

	w := NewWorkspace(n)
	if _, err := w.FactorInto(m); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { w.Solve(b, x) }); a != 0 {
		t.Errorf("Workspace.Solve allocs/run = %g, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		w.Invalidate()
		if _, err := w.FactorInto(m); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Workspace fresh factor allocs/run = %g, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := w.FactorInto(m); err != nil {
			t.Fatal(err)
		}
		copy(x, b)
		w.SolveInPlace(x)
	}); a != 0 {
		t.Errorf("Workspace factor+solve allocs/run = %g, want 0", a)
	}

	cw := NewCWorkspace(n)
	if _, err := cw.FactorInto(cm); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		cw.Invalidate()
		if _, err := cw.FactorInto(cm); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("CWorkspace fresh factor allocs/run = %g, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := cw.FactorInto(cm); err != nil {
			t.Fatal(err)
		}
		copy(cx, cb)
		cw.SolveInPlace(cx)
	}); a != 0 {
		t.Errorf("CWorkspace factor+solve allocs/run = %g, want 0", a)
	}
}

func benchSizes() []int { return []int{8, 32, 128} }

// BenchmarkFactor times a fresh, pivot-searching factorization.
func BenchmarkFactor(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n)))
			m, _ := randSystem(r, n)
			w := NewWorkspace(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Invalidate()
				if _, err := w.FactorInto(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFactorInto(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n)))
			m, _ := randSystem(r, n)
			w := NewWorkspace(n)
			if _, err := w.FactorInto(m); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.FactorInto(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolve(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n)))
			m, rhs := randSystem(r, n)
			w := NewWorkspace(n)
			if _, err := w.FactorInto(m); err != nil {
				b.Fatal(err)
			}
			x := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Solve(rhs, x)
			}
		})
	}
}
