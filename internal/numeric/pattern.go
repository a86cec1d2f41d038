package numeric

import (
	"math"
	"math/bits"
	"slices"
)

// Pattern is the structural nonzero pattern of an n×n matrix: every
// position at which some matrix of a sequence may hold a nonzero.
// Entries outside it must be exactly zero in every matrix handed to a
// Workspace built on it. Rows are stored compressed, columns
// ascending. A Pattern is immutable once built and safe to share.
type Pattern struct {
	n      int
	rowPtr []int32 // row i holds col[rowPtr[i]:rowPtr[i+1]]
	col    []int32
}

// PatternBuilder accumulates the positions of a Pattern.
type PatternBuilder struct {
	n    int
	mark []uint64 // bit i*n+j marks (i, j)
}

// NewPatternBuilder starts the pattern of an n×n matrix. The diagonal
// is always part of it.
func NewPatternBuilder(n int) *PatternBuilder {
	b := &PatternBuilder{n: n, mark: make([]uint64, (n*n+63)/64)}
	for i := 0; i < n; i++ {
		b.Add(i, i)
	}
	return b
}

// Add marks position (i, j). A negative index (the MNA ground) is
// ignored, as the stamp helpers ignore it.
func (b *PatternBuilder) Add(i, j int) {
	if i >= 0 && j >= 0 {
		k := i*b.n + j
		b.mark[k/64] |= 1 << (k % 64)
	}
}

// Build returns the accumulated pattern.
func (b *PatternBuilder) Build() *Pattern {
	nnz := 0
	for _, w := range b.mark {
		nnz += bits.OnesCount64(w)
	}
	p := &Pattern{n: b.n, rowPtr: make([]int32, b.n+1), col: make([]int32, 0, nnz)}
	for i := 0; i < b.n; i++ {
		for j := 0; j < b.n; j++ {
			if k := i*b.n + j; b.mark[k/64]&(1<<(k%64)) != 0 {
				p.col = append(p.col, int32(j))
			}
		}
		p.rowPtr[i+1] = int32(len(p.col))
	}
	return p
}

// N returns the matrix size.
func (p *Pattern) N() int { return p.n }

// Contains reports whether (i, j) is in the pattern.
func (p *Pattern) Contains(i, j int) bool {
	for _, c := range p.col[p.rowPtr[i]:p.rowPtr[i+1]] {
		if int(c) == j {
			return true
		}
	}
	return false
}

// Residual computes r = m·x − rhs over the pattern's entries only.
// Each row sums its terms in ascending column order starting from
// −rhs[i], exactly as the dense loop does, and the entries it skips
// are structural zeros, so for finite x the result equals the dense
// product's.
func (p *Pattern) Residual(m *Matrix, x, rhs, r []float64) {
	n := p.n
	for i := 0; i < n; i++ {
		row := m.Data[i*n : i*n+n]
		s := -rhs[i]
		for _, j := range p.col[p.rowPtr[i]:p.rowPtr[i+1]] {
			s += row[j] * x[j]
		}
		r[i] = s
	}
}

// Compact-path selection. The workspace factors in compact form only
// matrices of at least compactMinN unknowns, and only while the fill
// of the current pivot order stays within compactMaxFill of n². The
// size bound keeps the primitive testbenches, of which one flow builds
// hundreds that each factor few matrices, off the analysis entirely.
// Above the fill bound the dense loops' contiguous rows beat the
// compact path's indexed updates (DESIGN.md, "SPICE solver fast path",
// gives the measured crossover).
const (
	compactMinN    = 64
	compactMaxFill = 0.35
)

// compactLU holds the LU factors of PA for one pivot order in
// compressed rows: the fill pattern of the order (the structural
// pattern plus every position elimination can make nonzero) and the
// factor values on it, L strictly left of each row's diagonal entry
// and U from it rightwards. Every slice is kept across pivot-order
// changes and regrown only when a larger fill needs it.
type compactLU struct {
	analyzed bool    // swaps holds the last pivot order analyzed
	ok       bool    // that order's fill is compact; the fields below describe it
	swaps    []int   // the pivot order analyzed
	perm     []int32 // original row of permuted row r
	rowPtr   []int32 // fill pattern, as in Pattern
	col      []int32
	diag     []int32 // index of (r, r) in col
	val      []float64

	// Refactorization scratch.
	inv    []float64 // 1/pivot per row
	colMax []float64 // per column: max |a[i][k]| over i > k before step k
	work   []float64 // dense image of the row being eliminated
	mark   []int32   // symbolic analysis: row stamp per column
}

// prepare readies the compact factors after a fresh dense
// factorization lu with pivot order swaps, analyzing the order unless
// it is the one analyzed last. It reports whether the order's fill is
// compact; if so the factors are gathered from lu.
func (c *compactLU) prepare(p *Pattern, swaps []int, lu []float64) bool {
	if !c.analyzed || !slices.Equal(c.swaps, swaps) {
		c.analyze(p, swaps, int(compactMaxFill*float64(p.n*p.n)))
	}
	if c.ok {
		c.gather(lu, p.n)
	}
	return c.ok
}

// analyze derives the fill pattern of pattern p under the pivot order
// swaps: row r of PA holds its structural entries plus, for each
// column k < r it holds, U's row k beyond the diagonal. The order is
// left marked not compact when the fill exceeds maxNNZ.
func (c *compactLU) analyze(p *Pattern, swaps []int, maxNNZ int) {
	n := p.n
	c.analyzed, c.ok = true, false
	c.swaps = append(c.swaps[:0], swaps...)
	c.perm = resize32(c.perm, n)
	for i := range c.perm {
		c.perm[i] = int32(i)
	}
	for k, q := range swaps {
		c.perm[k], c.perm[q] = c.perm[q], c.perm[k]
	}
	c.rowPtr = resize32(c.rowPtr, n+1)
	c.diag = resize32(c.diag, n)
	c.mark = resize32(c.mark, n)
	for j := range c.mark {
		c.mark[j] = -1
	}
	if cap(c.col) == 0 {
		// Circuit matrices fill to a few times their structural count;
		// starting there saves most of append's regrowth.
		c.col = make([]int32, 0, min(4*len(p.col), maxNNZ+n))
	}
	c.col = c.col[:0]
	for r := 0; r < n; r++ {
		stamp := int32(r)
		src := c.perm[r]
		for _, j := range p.col[p.rowPtr[src]:p.rowPtr[src+1]] {
			c.mark[j] = stamp
		}
		// The pivot: a pattern that covers the matrix holds it already,
		// since the fresh factorization found it nonzero.
		c.mark[r] = stamp
		// Columns below r are visited in ascending order, so the fill
		// a U row adds left of the diagonal is visited in turn.
		for k := 0; k < r; k++ {
			if c.mark[k] != stamp {
				continue
			}
			for _, j := range c.col[c.diag[k]+1 : c.rowPtr[k+1]] {
				c.mark[j] = stamp
			}
		}
		for j := 0; j < n; j++ {
			if c.mark[j] == stamp {
				if j == r {
					c.diag[r] = int32(len(c.col))
				}
				c.col = append(c.col, int32(j))
			}
		}
		c.rowPtr[r+1] = int32(len(c.col))
		if len(c.col) > maxNNZ {
			return
		}
	}
	c.val = resize64(c.val, len(c.col))
	c.inv = resize64(c.inv, n)
	c.colMax = resize64(c.colMax, n)
	c.work = resize64(c.work, n)
	c.ok = true
}

// gather copies the fill-pattern entries of a dense, already permuted
// factorization into the compact values.
func (c *compactLU) gather(lu []float64, n int) {
	for r := 0; r < n; r++ {
		row := lu[r*n : r*n+n]
		for p := c.rowPtr[r]; p < c.rowPtr[r+1]; p++ {
			c.val[p] = row[c.col[p]]
		}
	}
}

// refactor recomputes the factors of m under the analyzed pivot order.
// Row by row, it gathers the pattern entries of PA's row r into the
// work row and applies, for each column k of the row's L part in
// ascending order, the update with U's row k. Each stored entry thus
// receives the same multiply-subtracts in the same order as in the
// dense right-looking loop, and every term the dense loop adds beyond
// them is an exact zero. The growth check of
// (*Workspace).tryReusePivots is evaluated on the same pivots and
// column maxima once all rows are done; it reports false when some
// step fails it, and the caller then pivots afresh.
func (c *compactLU) refactor(m *Matrix, tiny float64) bool {
	n := m.N
	a := m.Data
	col, val, work, inv, colMax := c.col, c.val, c.work, c.inv, c.colMax
	for k := range colMax {
		colMax[k] = 0
	}
	for r := 0; r < n; r++ {
		lo, d, hi := c.rowPtr[r], c.diag[r], c.rowPtr[r+1]
		src := a[int(c.perm[r])*n : int(c.perm[r])*n+n]
		for _, j := range col[lo:hi] {
			work[j] = src[j]
		}
		for _, k := range col[lo:d] {
			v := work[k]
			if av := math.Abs(v); av > colMax[k] {
				colMax[k] = av
			}
			l := v * inv[k]
			work[k] = l
			if l != 0 {
				ub, ue := c.diag[k]+1, c.rowPtr[k+1]
				uc := col[ub:ue]
				uv := val[ub:ue][:len(uc)]
				for t, j := range uc {
					work[j] -= l * uv[t]
				}
			}
		}
		for p, j := range col[lo:hi] {
			val[int(lo)+p] = work[j]
		}
		inv[r] = 1 / val[d]
	}
	for k := 0; k < n; k++ {
		piv := math.Abs(val[c.diag[k]])
		cm := colMax[k]
		if piv > cm {
			cm = piv
		}
		if piv <= tiny || piv < pivotReuseTol*cm {
			return false
		}
	}
	return true
}

// solve permutes x by swaps and runs forward and back substitution
// over the stored entries, each row in ascending column order as the
// dense substitution sums them.
func (c *compactLU) solve(swaps []int, x []float64) {
	for k, p := range swaps {
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	n := len(swaps)
	col, val := c.col, c.val
	for r := 1; r < n; r++ {
		lo, d := c.rowPtr[r], c.diag[r]
		lc := col[lo:d]
		lv := val[lo:d][:len(lc)]
		s := x[r]
		for t, j := range lc {
			s -= lv[t] * x[j]
		}
		x[r] = s
	}
	for r := n - 1; r >= 0; r-- {
		d, hi := c.diag[r], c.rowPtr[r+1]
		uc := col[d+1 : hi]
		uv := val[d+1 : hi][:len(uc)]
		s := x[r]
		for t, j := range uc {
			s -= uv[t] * x[j]
		}
		x[r] = s / val[d]
	}
}

func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resize64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
