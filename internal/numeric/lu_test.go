package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve factors m fresh in a workspace and solves m x = b.
func solve(m *Matrix, b []float64) ([]float64, error) {
	w := NewWorkspace(m.N)
	if _, err := w.FactorInto(m); err != nil {
		return nil, err
	}
	x := make([]float64, m.N)
	w.Solve(b, x)
	return x, nil
}

// solveC is solve for complex systems.
func solveC(m *CMatrix, b []complex128) ([]complex128, error) {
	w := NewCWorkspace(m.N)
	if _, err := w.FactorInto(m); err != nil {
		return nil, err
	}
	x := append([]complex128(nil), b...)
	w.SolveInPlace(x)
	return x, nil
}

func TestSolveIdentity(t *testing.T) {
	n := 4
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	b := []float64{1, 2, 3, 4}
	x, err := solve(m, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-14 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestSolveKnown2x2(t *testing.T) {
	// [2 1; 1 3] x = [5; 10] -> x = [1; 3]
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := solve(m, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := solve(m, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := NewWorkspace(2).FactorInto(m); err == nil {
		t.Fatal("want singularity error for rank-1 matrix")
	}
	if _, err := NewWorkspace(3).FactorInto(NewMatrix(3)); err == nil {
		t.Fatal("want singularity error for zero matrix")
	}
	if _, err := NewCWorkspace(3).FactorInto(NewCMatrix(3)); err == nil {
		t.Fatal("want singularity error for zero complex matrix")
	}
}

// Property: for random well-conditioned systems, solving then
// multiplying back recovers b.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 2 + r.Intn(12)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
			m.Add(i, i, float64(n)) // diagonally dominant-ish
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := solve(m, b)
		if err != nil {
			return false
		}
		// Residual ||Ax - b||
		res := 0.0
		for i := 0; i < n; i++ {
			s := -b[i]
			for j := 0; j < n; j++ {
				s += m.At(i, j) * x[j]
			}
			res += s * s
		}
		return math.Sqrt(res) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComplexSolveKnown(t *testing.T) {
	// (1+1i) x = 2i -> x = 1+1i
	m := NewCMatrix(1)
	m.Set(0, 0, complex(1, 1))
	x, err := solveC(m, []complex128{complex(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(1, 1)) > 1e-12 {
		t.Errorf("x = %v, want 1+1i", x[0])
	}
}

func TestComplexSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
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
		x, err := solveC(m, b)
		if err != nil {
			return false
		}
		res := 0.0
		for i := 0; i < n; i++ {
			s := -b[i]
			for j := 0; j < n; j++ {
				s += m.At(i, j) * x[j]
			}
			res += real(s)*real(s) + imag(s)*imag(s)
		}
		return math.Sqrt(res) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolveAliasing(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 4)
	w := NewWorkspace(2)
	if _, err := w.FactorInto(m); err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 8}
	w.Solve(b, b) // x aliases b
	if math.Abs(b[0]-1) > 1e-14 || math.Abs(b[1]-2) > 1e-14 {
		t.Errorf("aliased solve = %v, want [1 2]", b)
	}
}
