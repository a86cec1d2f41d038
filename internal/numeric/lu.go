// Package numeric provides the linear-algebra kernel used by the MNA
// circuit simulator (real and complex LU factorization with row
// pivoting) together with curve utilities used by the primitive-tuning
// stopping rules (minimum, knee, monotonicity) and the measurements
// (level crossings, log-spaced sweeps).
//
// Matrices are stored dense and every fresh, pivot-searching
// factorization is dense. A real Workspace given the structural
// Pattern of its matrices refactors and solves large, sparse ones in
// compact form along the fill of the current pivot order, bit for bit
// as a dense elimination under the same row swaps (see pattern.go).
// NewPatternWorkspace factors in the matrix's own order with partial
// pivoting. NewOrderedWorkspace factors QᵀAQ for a minimum-degree
// order Q of A + Aᵀ and keeps diagonal pivots down to the replay's
// growth bound, which fills a circuit matrix far less. Primitive
// testbench matrices (tens of unknowns) stay on the dense loops with
// partial pivoting and pay for no analysis.
package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when factorization meets a pivot that is
// exactly zero or numerically negligible relative to the matrix scale.
var ErrSingular = errors.New("numeric: singular matrix")

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	N    int
	Data []float64 // len N*N
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add accumulates v into element (i, j) — the MNA "stamp" operation.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Zero clears all elements, preserving the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// factorReal eliminates the n×n matrix in lu in place, recording the
// row-swap sequence (LAPACK ipiv convention: swaps[k] is the row
// exchanged with row k at step k, so applying it to a right-hand side
// is an in-place pass of element swaps). At step k it keeps the
// diagonal as pivot while |a[k][k]| >= tol × the column's maximum
// over rows i >= k (and above the singularity threshold), and
// otherwise swaps in the first row holding that maximum: tol = 1 is
// partial pivoting, decision for decision. It returns the
// scale-relative singularity threshold so a workspace can carry it
// into later pivot-reuse passes.
func factorReal(lu []float64, n int, swaps []int, tol float64) (float64, error) {
	maxAbs := 0.0
	for _, v := range lu {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	tiny := maxAbs * 1e-15
	if tiny == 0 {
		return 0, ErrSingular
	}
	a := lu
	// The column maximum: column 0 needs an explicit scan; each
	// elimination step tracks the next column's max as a side effect,
	// replacing the cache-hostile strided scan every later step would
	// otherwise pay.
	p, best := 0, math.Abs(a[0])
	for i := 1; i < n; i++ {
		if v := math.Abs(a[i*n]); v > best {
			best = v
			p = i
		}
	}
	for k := 0; k < n; k++ {
		if best <= tiny {
			return 0, fmt.Errorf("%w: pivot %d (%.3e)", ErrSingular, k, best)
		}
		// p is the first row of the maximum, so at tol = 1 the
		// diagonal already wins exactly when it is the maximum.
		if d := math.Abs(a[k*n+k]); p != k && d >= tol*best && d > tiny {
			p = k
		}
		swaps[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				a[p*n+j], a[k*n+j] = a[k*n+j], a[p*n+j]
			}
		}
		p, best = eliminateBelow(a, n, k)
	}
	return tiny, nil
}

// eliminateBelow applies the Gaussian rank-1 update of column k to the
// rows below it. The pivot row and each target row are taken as
// subslices so the compiler can drop bounds checks from the O(n²)
// inner loop — the hottest code in the package (every factorization,
// fresh or pivot-reusing, spends most of its time here).
//
// It returns the row index and magnitude of the largest |a[i][k+1]|
// over i > k after the update: the pivot candidate for the next
// elimination step (and the growth reference for the pivot-reuse
// path), tracked here while the rows are cache-hot. Row swaps at step
// k+1 permute rows within the tracked set, so scanning before the
// swap is equivalent to the classic scan after it.
func eliminateBelow(a []float64, n, k int) (int, float64) {
	inv := 1 / a[k*n+k]
	rowK := a[k*n+k+1 : k*n+n]
	p, colMax := k+1, 0.0
	i := k + 1
	// Two rows per pass: one traversal of the pivot row feeds both
	// updates, halving loop overhead and doubling the independent
	// multiply-subtract chains in flight. Each element still sees the
	// exact same single multiply-subtract, so results are bitwise
	// identical to the one-row form.
	for ; i+1 < n; i += 2 {
		l0 := a[i*n+k] * inv
		l1 := a[(i+1)*n+k] * inv
		a[i*n+k] = l0
		a[(i+1)*n+k] = l1
		if l0 != 0 && l1 != 0 {
			r0 := a[i*n+k+1 : i*n+n : i*n+n][:len(rowK)]
			r1 := a[(i+1)*n+k+1 : (i+1)*n+n : (i+1)*n+n][:len(rowK)]
			for j, v := range rowK {
				r0[j] -= l0 * v
				r1[j] -= l1 * v
			}
		} else if l0 != 0 {
			r0 := a[i*n+k+1 : i*n+n]
			for j, v := range rowK {
				r0[j] -= l0 * v
			}
		} else if l1 != 0 {
			r1 := a[(i+1)*n+k+1 : (i+1)*n+n]
			for j, v := range rowK {
				r1[j] -= l1 * v
			}
		}
		if v := math.Abs(a[i*n+k+1]); v > colMax {
			colMax = v
			p = i
		}
		if v := math.Abs(a[(i+1)*n+k+1]); v > colMax {
			colMax = v
			p = i + 1
		}
	}
	for ; i < n; i++ {
		l := a[i*n+k] * inv
		a[i*n+k] = l
		if l != 0 {
			rowI := a[i*n+k+1 : i*n+n]
			for j, v := range rowK {
				rowI[j] -= l * v
			}
		}
		if v := math.Abs(a[i*n+k+1]); v > colMax {
			colMax = v
			p = i
		}
	}
	return p, colMax
}

// substituteReal performs the permutation plus forward/back
// substitution on x in place — the shared, allocation-free solve core.
func substituteReal(n int, lu []float64, swaps []int, x []float64) {
	for k := 0; k < n; k++ {
		if p := swaps[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	a := lu
	// Forward substitution (L has unit diagonal). Matching-length row
	// and solution subslices keep the inner loops bounds-check free.
	for i := 1; i < n; i++ {
		row := a[i*n : i*n+i]
		xf := x[:i]
		s := x[i]
		for j, v := range row {
			s -= v * xf[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := a[i*n+i+1 : i*n+n]
		xb := x[i+1 : n]
		s := x[i]
		for j, v := range row {
			s -= v * xb[j]
		}
		x[i] = s / a[i*n+i]
	}
}

// pivotReuseTol is the growth bound for recycling a previous pivot
// order: at every elimination step the recycled pivot must be at
// least this fraction of the current column maximum (the pivot fresh
// partial pivoting would pick). Below the bound element growth can
// destroy accuracy, so the workspace falls back to fresh pivoting.
// An ordered workspace's fresh factorizations keep the diagonal down
// to the same bound, so a fresh pivot order passes its own check.
const pivotReuseTol = 0.1

// Workspace is a reusable LU factorization buffer for solving a
// sequence of same-size systems, as the Newton loop does: the n*n
// scratch and the swap sequence are allocated once, FactorInto
// overwrites them in place, and consecutive factorizations of the
// same matrix pattern first try the previous pivot order (checking a
// growth bound each step) before falling back to fresh partial
// pivoting. Not concurrency-safe; use one Workspace per engine.
//
// A workspace built by NewPatternWorkspace or NewOrderedWorkspace
// also derives, after each fresh factorization of a large enough
// matrix, the fill of the new pivot order; while that fill is
// compact, refactorizations that replay the order and all solves
// touch only the entries it holds.
type Workspace struct {
	n     int
	lu    []float64 // factors of the matrix in the workspace's order
	swaps []int
	valid bool    // a prior factorization's swap order can be retried
	tiny  float64 // scale threshold from the last fresh factorization
	tol   float64 // fresh pivoting's diagonal threshold (see factorReal)

	// order is the symmetric order the workspace factors in: row and
	// column k of the factored matrix are row and column order[k] of
	// the input. nil is the input's own order. y is the solve's
	// scratch in that order.
	order []int32
	y     []float64

	pat     *Pattern  // structural pattern in the workspace's order; nil keeps every pass dense
	cp      compactLU // compact factors for the current pivot order
	compact bool      // the current factorization lives in cp
}

// NewWorkspace returns a workspace for n×n systems.
func NewWorkspace(n int) *Workspace {
	return &Workspace{n: n, lu: make([]float64, n*n), swaps: make([]int, n), tol: 1}
}

// NewPatternWorkspace returns a workspace for the p.N()×p.N() systems
// whose nonzeros all lie in p, factored with partial pivoting in
// their own order. The workspace chooses between the dense and the
// compact path from the matrix size and the fill each pivot order
// produces; matrices below the compact path's minimum size never pay
// for the analysis.
func NewPatternWorkspace(p *Pattern) *Workspace {
	w := NewWorkspace(p.n)
	if p.n >= compactMinN {
		w.usePattern(p, false)
	}
	return w
}

// NewOrderedWorkspace is NewPatternWorkspace in a fill-reducing order:
// it computes once, from p alone, a minimum-degree order Q of
// A + Aᵀ and factors QᵀAQ, each fresh factorization keeping the
// diagonal as pivot while it is at least pivotReuseTol of its
// column's maximum. Solves still take and return the unordered
// vectors. Matrices below the compact path's minimum size get a
// plain workspace, partial pivoting in their own order.
func NewOrderedWorkspace(p *Pattern) *Workspace {
	w := NewWorkspace(p.n)
	if p.n >= compactMinN {
		w.usePattern(p, true)
	}
	return w
}

// usePattern gives w the structural pattern p of its matrices and,
// when ordered, the fill-reducing order and threshold of
// NewOrderedWorkspace.
func (w *Workspace) usePattern(p *Pattern, ordered bool) {
	if !ordered {
		w.pat = p
		return
	}
	w.order = minDegreeOrder(p)
	w.pat = p.permute(w.order)
	w.y = make([]float64, p.n)
	w.tol = pivotReuseTol
}

// Fill reports the compact factorization the workspace holds: the
// entries of its L and U, and the multiply-subtracts a refactorization
// that replays its pivot order does along them. Both are 0 while the
// factorization is dense.
func (w *Workspace) Fill() (entries, mulSubs int) {
	if !w.compact {
		return 0, 0
	}
	return len(w.cp.col), w.cp.mulSubs
}

// Invalidate drops the remembered pivot order (and marks the current
// factorization unusable), forcing the next FactorInto to pivot
// fresh. Call when the matrix topology changes.
func (w *Workspace) Invalidate() { w.valid = false }

// FactorInto factors m into the workspace scratch without allocating.
// m is not modified. When a previous factorization exists, its pivot
// order is tried first; reused reports whether that succeeded.
func (w *Workspace) FactorInto(m *Matrix) (reused bool, err error) {
	if m.N != w.n {
		w.n = m.N
		w.lu = make([]float64, w.n*w.n)
		w.swaps = make([]int, w.n)
		w.valid = false
		// The pattern and order described the old size.
		w.pat, w.order, w.tol = nil, nil, 1
	}
	if w.valid {
		if w.compact {
			reused = w.cp.refactor(m, w.tiny)
		} else {
			reused = w.tryReusePivots(m)
		}
		if reused {
			return true, nil
		}
	}
	w.valid, w.compact = false, false
	w.load(m)
	tiny, err := factorReal(w.lu, w.n, w.swaps, w.tol)
	if err != nil {
		return false, err
	}
	w.tiny = tiny
	w.valid = true
	if w.pat != nil {
		w.compact = w.cp.prepare(w.pat, w.swaps, w.order, w.lu)
	}
	return false, nil
}

// load copies m into the factor scratch in the workspace's order.
func (w *Workspace) load(m *Matrix) {
	if w.order == nil {
		copy(w.lu, m.Data)
		return
	}
	n := w.n
	for r, i := range w.order {
		src := m.Data[int(i)*n : int(i)*n+n]
		dst := w.lu[r*n : r*n+n]
		for c, j := range w.order {
			dst[c] = src[j]
		}
	}
}

// tryReusePivots redoes the elimination with the remembered swap
// sequence, verifying the growth bound at every step. On failure the
// scratch holds a partial elimination; the caller re-factors fresh
// from the (unmodified) input, which recopies it.
func (w *Workspace) tryReusePivots(m *Matrix) bool {
	n := w.n
	w.load(m)
	// The singularity guard reuses the scale threshold from the fresh
	// factorization whose pivot order is being recycled: matrices in a
	// reuse sequence are near-identical, so their scales are too, and
	// skipping the max-abs scan keeps the copy above a pure memmove.
	// Any drift large enough to matter trips the growth check instead.
	tiny := w.tiny
	a := w.lu
	// Column max below the diagonal — the same quantity fresh pivoting
	// maximizes — anchors the growth check. Column 0 is scanned
	// explicitly; later columns are tracked by eliminateBelow.
	colMax := 0.0
	for i := 0; i < n; i++ {
		if v := math.Abs(a[i*n]); v > colMax {
			colMax = v
		}
	}
	for k := 0; k < n; k++ {
		if p := w.swaps[k]; p != k {
			for j := 0; j < n; j++ {
				a[p*n+j], a[k*n+j] = a[k*n+j], a[p*n+j]
			}
		}
		piv := math.Abs(a[k*n+k])
		if piv <= tiny || piv < pivotReuseTol*colMax {
			return false
		}
		_, colMax = eliminateBelow(a, n, k)
	}
	return true
}

// SolveInPlace solves Ax = b where x holds b on entry and the
// solution on exit, using the most recent FactorInto. Allocation-free.
func (w *Workspace) SolveInPlace(x []float64) {
	y := x
	if w.order != nil {
		y = w.y
		for r, i := range w.order {
			y[r] = x[i]
		}
	}
	if w.compact {
		w.cp.solve(w.swaps, y)
	} else {
		substituteReal(w.n, w.lu, w.swaps, y)
	}
	if w.order != nil {
		for r, i := range w.order {
			x[i] = y[r]
		}
	}
}

// Solve solves Ax = b into x (which may alias b) using the most
// recent FactorInto. Allocation-free.
func (w *Workspace) Solve(b, x []float64) {
	if &x[0] != &b[0] {
		copy(x, b)
	}
	w.SolveInPlace(x)
}

// CMatrix is a dense, row-major complex matrix used by AC analysis.
type CMatrix struct {
	N    int
	Data []complex128
}

// NewCMatrix returns an n×n zero complex matrix.
func NewCMatrix(n int) *CMatrix {
	return &CMatrix{N: n, Data: make([]complex128, n*n)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Add accumulates v into element (i, j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.N+j] += v }

// Zero clears all elements, preserving the allocation.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// factorComplex mirrors factorReal for complex matrices.
func factorComplex(m *CMatrix, lu []complex128, swaps []int) (float64, error) {
	n := m.N
	maxAbs := 0.0
	for i, v := range m.Data {
		lu[i] = v
		if a := cmplx.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	tiny := maxAbs * 1e-15
	if tiny == 0 {
		return 0, ErrSingular
	}
	a := lu
	p, best := 0, cmplx.Abs(a[0])
	for i := 1; i < n; i++ {
		if v := cmplx.Abs(a[i*n]); v > best {
			best = v
			p = i
		}
	}
	for k := 0; k < n; k++ {
		if best <= tiny {
			return 0, fmt.Errorf("%w: pivot %d (%.3e)", ErrSingular, k, best)
		}
		swaps[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				a[p*n+j], a[k*n+j] = a[k*n+j], a[p*n+j]
			}
		}
		p, best = eliminateBelowC(a, n, k)
	}
	return tiny, nil
}

// eliminateBelowC mirrors eliminateBelow for complex systems,
// including the next-column pivot-candidate tracking.
func eliminateBelowC(a []complex128, n, k int) (int, float64) {
	inv := 1 / a[k*n+k]
	rowK := a[k*n+k+1 : k*n+n]
	p, colMax := k+1, 0.0
	for i := k + 1; i < n; i++ {
		l := a[i*n+k] * inv
		a[i*n+k] = l
		if l != 0 {
			rowI := a[i*n+k+1 : i*n+n]
			for j, v := range rowK {
				rowI[j] -= l * v
			}
		}
		if v := cmplx.Abs(a[i*n+k+1]); v > colMax {
			colMax = v
			p = i
		}
	}
	return p, colMax
}

// substituteComplex mirrors substituteReal.
func substituteComplex(n int, lu []complex128, swaps []int, x []complex128) {
	for k := 0; k < n; k++ {
		if p := swaps[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	a := lu
	for i := 1; i < n; i++ {
		row := a[i*n : i*n+i]
		xf := x[:i]
		s := x[i]
		for j, v := range row {
			s -= v * xf[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := a[i*n+i+1 : i*n+n]
		xb := x[i+1 : n]
		s := x[i]
		for j, v := range row {
			s -= v * xb[j]
		}
		x[i] = s / a[i*n+i]
	}
}

// CWorkspace is the complex analogue of Workspace, used by AC
// analysis to factor one system per frequency point without per-point
// allocation. Adjacent frequency points have nearly identical
// matrices, so the previous pivot order usually survives the growth
// check. Not concurrency-safe.
type CWorkspace struct {
	n     int
	lu    []complex128
	swaps []int
	valid bool
	tiny  float64 // scale threshold from the last fresh factorization
}

// NewCWorkspace returns a workspace for n×n complex systems.
func NewCWorkspace(n int) *CWorkspace {
	return &CWorkspace{n: n, lu: make([]complex128, n*n), swaps: make([]int, n)}
}

// Invalidate drops the remembered pivot order.
func (w *CWorkspace) Invalidate() { w.valid = false }

// FactorInto factors m into the workspace scratch without allocating;
// m is not modified. reused reports whether the previous pivot order
// was recycled.
func (w *CWorkspace) FactorInto(m *CMatrix) (reused bool, err error) {
	if m.N != w.n {
		w.n = m.N
		w.lu = make([]complex128, w.n*w.n)
		w.swaps = make([]int, w.n)
		w.valid = false
	}
	if w.valid && w.tryReusePivots(m) {
		return true, nil
	}
	w.valid = false
	tiny, err := factorComplex(m, w.lu, w.swaps)
	if err != nil {
		return false, err
	}
	w.tiny = tiny
	w.valid = true
	return false, nil
}

func (w *CWorkspace) tryReusePivots(m *CMatrix) bool {
	n := w.n
	copy(w.lu, m.Data)
	// See (*Workspace).tryReusePivots: the scale threshold carries over
	// from the fresh factorization whose pivot order is recycled.
	tiny := w.tiny
	a := w.lu
	colMax := 0.0
	for i := 0; i < n; i++ {
		if v := cmplx.Abs(a[i*n]); v > colMax {
			colMax = v
		}
	}
	for k := 0; k < n; k++ {
		if p := w.swaps[k]; p != k {
			for j := 0; j < n; j++ {
				a[p*n+j], a[k*n+j] = a[k*n+j], a[p*n+j]
			}
		}
		piv := cmplx.Abs(a[k*n+k])
		if piv <= tiny || piv < pivotReuseTol*colMax {
			return false
		}
		_, colMax = eliminateBelowC(a, n, k)
	}
	return true
}

// SolveInPlace solves Ax = b where x holds b on entry and the
// solution on exit. Allocation-free.
func (w *CWorkspace) SolveInPlace(x []complex128) {
	substituteComplex(w.n, w.lu, w.swaps, x)
}
