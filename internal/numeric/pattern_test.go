package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mnaLike draws the structural pattern of a random MNA-like system:
// n-nb node rows coupled by two-terminal elements and four-terminal
// transistor blocks between nearby nodes, a rail node shared by every
// tenth node, and nb voltage-source branch rows whose diagonal is a
// structural entry that stamps nothing. It returns the pattern and a
// value generator that fills the pattern's entries (and nothing else)
// with a nonsingular matrix.
func mnaLike(r *rand.Rand, n, nb int) (*Pattern, func(m *Matrix)) {
	nodes := n - nb
	b := NewPatternBuilder(n)
	var pairs [][2]int
	couple := func(i, j int) {
		b.Add(i, i)
		b.Add(j, j)
		b.Add(i, j)
		b.Add(j, i)
		pairs = append(pairs, [2]int{i, j})
	}
	for i := 0; i+1 < nodes; i++ {
		couple(i, i+1+r.Intn(min(4, nodes-i-1)))
	}
	for k := 0; k < nodes/4; k++ {
		base := r.Intn(nodes - 8)
		var t [4]int
		for q := range t {
			t[q] = base + r.Intn(8)
		}
		for _, i := range t {
			for _, j := range t {
				b.Add(i, j)
			}
		}
		couple(t[0], t[2])
	}
	for i := 10; i < nodes; i += 10 {
		couple(0, i)
	}
	// Distinct nodes: two sources on one node would be singular.
	branch := r.Perm(nodes)[:nb]
	for k, node := range branch {
		b.Add(node, nodes+k)
		b.Add(nodes+k, node)
	}
	p := b.Build()
	fill := func(m *Matrix) {
		m.Zero()
		for _, pr := range pairs {
			g := 0.1 + r.Float64()
			i, j := pr[0], pr[1]
			m.Add(i, i, g)
			m.Add(j, j, g)
			m.Add(i, j, -g)
			m.Add(j, i, -g)
		}
		// Transistor-like entries: any pattern position of a node row
		// may carry a (possibly exactly zero) transconductance.
		for i := 0; i < nodes; i++ {
			for _, j := range p.col[p.rowPtr[i]:p.rowPtr[i+1]] {
				switch u := r.Float64(); {
				case u < 0.1:
				case int(j) < nodes:
					m.Add(i, int(j), 0.05*r.NormFloat64())
				}
			}
			m.Add(i, i, 1e-3)
		}
		for k, node := range branch {
			br := nodes + k
			m.Add(node, br, 1)
			m.Add(br, node, 1)
		}
	}
	return p, fill
}

// checkSameFactors requires the compact factors of w to equal the
// dense factors of ref bit for bit, and ref to hold exact zeros off
// the fill.
func checkSameFactors(t *testing.T, w, ref *Workspace) {
	t.Helper()
	n := ref.n
	c := &w.cp
	inFill := make([]bool, n*n)
	for r := 0; r < n; r++ {
		for p := c.rowPtr[r]; p < c.rowPtr[r+1]; p++ {
			j := int(c.col[p])
			inFill[r*n+j] = true
			if got, want := c.val[p], ref.lu[r*n+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("factor (%d,%d) = %v, dense %v", r, j, got, want)
			}
		}
	}
	for i, v := range ref.lu {
		if !inFill[i] && v != 0 {
			t.Fatalf("dense factor (%d,%d) = %v outside the fill", i/n, i%n, v)
		}
	}
}

// TestCompactMatchesDense drives a pattern workspace and a dense one
// through the same matrix sequences — small drifts that replay the
// pivot order, and pivot collapses that fail the growth check and
// force a new order — and requires every factor and every solution
// to be bit-identical, with the same reuse decisions.
func TestCompactMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var compactReuses, fallbacks, orders int
	for trial := 0; trial < 12; trial++ {
		n := 64 + r.Intn(100)
		p, fill := mnaLike(r, n, 1+r.Intn(6))
		w, ref := NewPatternWorkspace(p), NewWorkspace(n)
		m := NewMatrix(n)
		fill(m)
		x, y := make([]float64, n), make([]float64, n)
		for step := 0; step < 40; step++ {
			switch {
			case step%10 == 9:
				// Collapse the pivot the current order picks for some
				// column: the growth check must reject the order.
				k := r.Intn(n)
				row := int(w.cp.perm[k])
				m.Data[row*n+k] *= 1e-4
			case step > 0:
				for i := 0; i < n; i++ {
					for _, j := range p.col[p.rowPtr[i]:p.rowPtr[i+1]] {
						m.Data[i*n+int(j)] *= 1 + 1e-3*r.NormFloat64()
					}
				}
			}
			wasCompact := w.compact
			got, err1 := w.FactorInto(m)
			want, err2 := ref.FactorInto(m)
			if (err1 == nil) != (err2 == nil) || got != want {
				t.Fatalf("trial %d step %d: reused %v err %v, dense reused %v err %v", trial, step, got, err1, want, err2)
			}
			if err1 != nil {
				break
			}
			switch {
			case got && w.compact:
				compactReuses++
			case !got && wasCompact:
				fallbacks++
			}
			if !got {
				orders++
			}
			if !w.compact {
				continue
			}
			checkSameFactors(t, w, ref)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			copy(y, x)
			w.SolveInPlace(x)
			ref.SolveInPlace(y)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					t.Fatalf("trial %d step %d: x[%d] = %v, dense %v", trial, step, i, x[i], y[i])
				}
			}
		}
	}
	if compactReuses == 0 || fallbacks == 0 {
		t.Fatalf("sequences exercised %d compact reuses and %d growth fallbacks; want both", compactReuses, fallbacks)
	}
	t.Logf("%d compact reuses, %d growth fallbacks, %d pivot orders", compactReuses, fallbacks, orders)
}

// TestPatternResidualMatchesDense checks the pattern walk of m·x − rhs
// against the dense loop bit for bit.
func TestPatternResidualMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	p, fill := mnaLike(r, 90, 3)
	m := NewMatrix(90)
	fill(m)
	x, rhs := make([]float64, 90), make([]float64, 90)
	for i := range x {
		x[i], rhs[i] = r.NormFloat64(), r.NormFloat64()
	}
	got := make([]float64, 90)
	p.Residual(m, x, rhs, got)
	for i := 0; i < 90; i++ {
		s := -rhs[i]
		for j := 0; j < 90; j++ {
			s += m.Data[i*90+j] * x[j]
		}
		if math.Float64bits(got[i]) != math.Float64bits(s) {
			t.Fatalf("row %d: %v, dense %v", i, got[i], s)
		}
	}
}

// TestCompactZeroAllocs pins the steady state of the compact path:
// pivot-replaying FactorInto and SolveInPlace allocate nothing.
func TestCompactZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p, fill := mnaLike(r, 120, 4)
	w := NewPatternWorkspace(p)
	m := NewMatrix(120)
	fill(m)
	if _, err := w.FactorInto(m); err != nil {
		t.Fatal(err)
	}
	if !w.compact {
		t.Fatal("workspace did not take the compact path")
	}
	x := make([]float64, 120)
	allocs := testing.AllocsPerRun(50, func() {
		reused, err := w.FactorInto(m)
		if err != nil || !reused {
			t.Fatalf("reuse failed: reused=%v err=%v", reused, err)
		}
	})
	if allocs != 0 {
		t.Errorf("compact FactorInto allocates %.1f times per call", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() { w.SolveInPlace(x) })
	if allocs != 0 {
		t.Errorf("compact SolveInPlace allocates %.1f times per call", allocs)
	}
}

// TestSmallPatternStaysDense checks that a matrix below the compact
// path's minimum size is never analyzed.
func TestSmallPatternStaysDense(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p, fill := mnaLike(r, compactMinN-1, 2)
	w := NewPatternWorkspace(p)
	m := NewMatrix(p.N())
	fill(m)
	if _, err := w.FactorInto(m); err != nil {
		t.Fatal(err)
	}
	if w.compact || w.cp.analyzed {
		t.Error("matrix below the compact minimum was analyzed")
	}
}

// BenchmarkRefactorSolve measures the dense/compact crossover: one
// pivot-replaying refactorization plus two solves of MNA-like systems,
// on the dense loops and on the compact path forced past its fill
// bound. extra·n/3 random conductances between arbitrary nodes raise
// the fill; the fill of the pivot order is in each compact
// sub-benchmark's name.
func BenchmarkRefactorSolve(b *testing.B) {
	for _, n := range []int{54, 96, 136} {
		for _, extra := range []int{0, 1, 3, 6} {
			r := rand.New(rand.NewSource(int64(10*n + extra)))
			p, fill := mnaLike(r, n, 3)
			bld := NewPatternBuilder(n)
			for i := 0; i < n; i++ {
				for _, j := range p.col[p.rowPtr[i]:p.rowPtr[i+1]] {
					bld.Add(i, int(j))
				}
			}
			m := NewMatrix(n)
			fill(m)
			for e := 0; e < extra*n/3; e++ {
				i, j := r.Intn(n-3), r.Intn(n-3)
				g := 0.05 + 0.1*r.Float64()
				bld.Add(i, j)
				bld.Add(j, i)
				m.Add(i, i, g)
				m.Add(j, j, g)
				m.Add(i, j, -g)
				m.Add(j, i, -g)
			}
			wide := bld.Build()
			for _, compact := range []bool{false, true} {
				w := NewWorkspace(n)
				if _, err := w.FactorInto(m); err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("n=%d/extra=%d/dense", n, extra)
				if compact {
					w.cp.analyze(wide, w.swaps, n*n)
					w.cp.gather(w.lu, n)
					w.pat, w.compact = wide, true
					name = fmt.Sprintf("n=%d/extra=%d/compact/fill=%.0f%%", n, extra, 100*float64(len(w.cp.col))/float64(n*n))
				}
				x := make([]float64, n)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if reused, err := w.FactorInto(m); err != nil || !reused {
							b.Fatalf("refactorization did not replay the order: reused=%v err=%v", reused, err)
						}
						w.SolveInPlace(x)
						w.SolveInPlace(x)
					}
				})
			}
		}
	}
}
