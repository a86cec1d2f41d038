// Incremental cost evaluation for the sequence-pair annealer. Every
// move still needs fresh block coordinates (a variant switch resizes
// a block; a sequence swap reorders the longest-path DAG), but the
// recompute is a single O(n²) scan — processing blocks in sequence
// order makes each predecessor final before it is read, replacing
// the seed's iterate-to-fixpoint passes — and everything downstream
// of coordinates is delta-updated: per-net HPWL is cached and only
// recomputed for nets touching a block whose rectangle actually
// moved, and the symmetry penalty only when a pair member moved. The
// invariant, enforced by a debug assertion test, is that the
// incremental cost is bit-identical to a from-scratch evaluation.
//
// A move costs only its own work. The sequence positions and block
// sizes are kept in step by every move and its undo, the variant sizes
// and symmetry pairs are flat index tables built once and shared by the
// replicas, and the caches are two generations that a move and its
// rejection select by flipping an index, so a move writes no pointer
// (no GC write barrier) and allocates nothing.
package place

import (
	"math"

	"primopt/internal/geom"
)

// state is one annealing chain's representation: shared immutable
// topology (blocks, nets, symmetry, indexes, variant tables) plus the
// chain's mutable solution and its incremental-evaluation caches.
type state struct {
	// Immutable after buildTopology; shared across replica clones.
	blocks    []Block
	nets      []Net
	sym       []SymPair
	index     map[string]int
	partner   []int    // sym-pair partner per block, -1 when unpaired
	symIx     [][2]int // the symmetry pairs as block indices, in sym order
	netBlocks [][]int  // per net: member block indices
	netsOf    [][]int  // per block: nets it belongs to
	weights   []float64
	// Variant v of block b is entry varOff[b]+v of varW and varH.
	varOff     []int
	varW, varH []int64
	// draws is the number of variants a variant move of block b draws
	// from: its own count, or the smaller of its symmetry pair's.
	draws []int

	// Mutable solution (per replica). posP and posM are the inverses
	// of gammaP and gammaM (the position of each block in the
	// sequence); every move and undo keeps them in step.
	gammaP, gammaM []int
	posP, posM     []int
	varIx          []int
	// w and h are each block's size under its current variant, kept
	// in step with varIx like the positions.
	w, h []int64

	// Incremental caches: gens[cur] holds the current solution's
	// terms, the other generation the previous evaluated solution's,
	// so a rejected move is undone by flipping cur back.
	gens     [2]generation
	cur      int
	netDirty []bool
	// Scratch for computeCoords.
	at   []int
	edge []int64
}

// generation is one evaluated solution's cached terms: every block's
// rectangle (as coordinate columns), the weighted HPWL per net, the
// bounding-box area and the symmetry violation.
type generation struct {
	x0, y0, x1, y1 []int64
	netWL          []float64
	area, symErr   float64
}

// center returns block b's center, as geom.Rect.Center rounds it.
func (g *generation) center(b int) (int64, int64) {
	return (g.x0[b] + g.x1[b]) / 2, (g.y0[b] + g.y1[b]) / 2
}

// rect returns block b's rectangle.
func (g *generation) rect(b int) geom.Rect {
	return geom.Rect{X0: g.x0[b], Y0: g.y0[b], X1: g.x1[b], Y1: g.y1[b]}
}

func newState(blocks []Block, nets []Net, sym []SymPair) *state {
	return &state{blocks: blocks, nets: nets, sym: sym, index: map[string]int{}}
}

// buildTopology fills the shared immutable indexes and tables once
// the name index is validated, and the identity starting solution.
func (st *state) buildTopology() {
	n := len(st.blocks)
	st.partner = make([]int, n)
	for i := range st.partner {
		st.partner[i] = -1
	}
	st.symIx = make([][2]int, len(st.sym))
	for i, sp := range st.sym {
		a, b := st.index[sp.A], st.index[sp.B]
		st.partner[a], st.partner[b] = b, a
		st.symIx[i] = [2]int{a, b}
	}
	st.varOff = make([]int, n+1)
	for i, b := range st.blocks {
		st.varOff[i+1] = st.varOff[i] + len(b.Variants)
	}
	st.varW = make([]int64, 0, st.varOff[n])
	st.varH = make([]int64, 0, st.varOff[n])
	st.draws = make([]int, n)
	for i, b := range st.blocks {
		for _, v := range b.Variants {
			st.varW = append(st.varW, v.W)
			st.varH = append(st.varH, v.H)
		}
		// Symmetry-pair members anneal variants in lockstep, over the
		// indices both halves support.
		st.draws[i] = len(b.Variants)
		if q := st.partner[i]; q >= 0 {
			st.draws[i] = min(st.draws[i], len(st.blocks[q].Variants))
		}
	}
	st.netBlocks = make([][]int, len(st.nets))
	st.netsOf = make([][]int, n)
	st.weights = make([]float64, len(st.nets))
	for i, net := range st.nets {
		wt := net.Weight
		if wt <= 0 {
			wt = 1
		}
		st.weights[i] = wt
		for _, bn := range net.Blocks {
			b := st.index[bn]
			st.netBlocks[i] = append(st.netBlocks[i], b)
			st.netsOf[b] = append(st.netsOf[b], i)
		}
	}
	st.gammaP = make([]int, n)
	st.gammaM = make([]int, n)
	st.varIx = make([]int, n)
	for i := range st.gammaP {
		st.gammaP[i], st.gammaM[i] = i, i
	}
	st.allocBuffers()
}

// clone returns a chain-private copy: the immutable topology is
// shared, the solution and every cache/scratch buffer is fresh.
func (st *state) clone() *state {
	c := &state{
		blocks: st.blocks, nets: st.nets, sym: st.sym, index: st.index,
		partner: st.partner, symIx: st.symIx, netBlocks: st.netBlocks, netsOf: st.netsOf,
		weights: st.weights, varOff: st.varOff, varW: st.varW, varH: st.varH, draws: st.draws,
		gammaP: append([]int(nil), st.gammaP...),
		gammaM: append([]int(nil), st.gammaM...),
		varIx:  append([]int(nil), st.varIx...),
	}
	c.allocBuffers()
	return c
}

// allocBuffers allocates the position and size tables, both cache
// generations and the scratch, and fills the tables from the solution.
func (st *state) allocBuffers() {
	n, m := len(st.blocks), len(st.nets)
	ints := make([]int, 3*n)
	st.posP, st.posM, st.at = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	i64 := make([]int64, 11*n)
	st.w, st.h, st.edge = i64[:n:n], i64[n:2*n:2*n], i64[2*n:3*n:3*n]
	wl := make([]float64, 2*m)
	for k := range st.gens {
		c := i64[(3+4*k)*n:]
		st.gens[k] = generation{
			x0: c[:n:n], y0: c[n : 2*n : 2*n], x1: c[2*n : 3*n : 3*n], y1: c[3*n : 4*n : 4*n],
			netWL: wl[m*k : m*(k+1) : m*(k+1)],
		}
	}
	st.netDirty = make([]bool, m)
	st.sync()
}

// sync rebuilds posP, posM, w and h from the solution, for one that
// was written whole (a start, a clone, a restore).
func (st *state) sync() {
	for i, b := range st.gammaP {
		st.posP[b] = i
	}
	for i, b := range st.gammaM {
		st.posM[b] = i
	}
	for b := range st.varIx {
		st.setVariant(b, st.varIx[b])
	}
}

// setVariant gives block b variant v and its size.
func (st *state) setVariant(b, v int) {
	st.varIx[b] = v
	k := st.varOff[b] + v
	st.w[b], st.h[b] = st.varW[k], st.varH[k]
}

// computeCoords fills g's rectangles with block positions from the
// sequence pair via longest-path accumulation, and g.area with their
// bounding box's. Scanning Γ+ (for x) and Γ- (for y) in order visits
// every predecessor before its successors — left-of and below edges
// always point forward in those sequences — so one O(n²) pass lands
// on the fixpoint directly.
func (st *state) computeCoords(g *generation) {
	// The scans run over sequence positions: at[q] is the other
	// sequence's position of the block at position q, and edge[q] its
	// right (top) edge, so the O(n²) loops read memory in order.
	at, edge := st.at, st.edge
	// Left-of: a before b in both sequences.
	for q, b := range st.gammaP {
		at[q] = st.posM[b]
	}
	for pi, b := range st.gammaP {
		var xb int64
		pm := at[pi]
		for q, m := range at[:pi] {
			if m < pm {
				xb = max(xb, edge[q])
			}
		}
		edge[pi] = xb + st.w[b]
		g.x0[b], g.x1[b] = xb, edge[pi]
	}
	// Below: a after b in Γ+ and before b in Γ-. Each rectangle is
	// final here, so the bounding box grows by geom.Rect.Union, which
	// skips empty rectangles and whose result does not depend on the
	// order of its operands.
	for q, b := range st.gammaM {
		at[q] = st.posP[b]
	}
	var bbox geom.Rect
	for mi, b := range st.gammaM {
		var yb int64
		pp := at[mi]
		for q, p := range at[:mi] {
			if p > pp {
				yb = max(yb, edge[q])
			}
		}
		edge[mi] = yb + st.h[b]
		g.y0[b], g.y1[b] = yb, edge[mi]
		bbox = bbox.Union(g.rect(b))
	}
	g.area = float64(bbox.Area())
}

// netHPWL is net i's half-perimeter wirelength over its blocks'
// centers: geom.HPWL of those centers, by the same integer min/max,
// without building the point slice.
func (st *state) netHPWL(i int, g *generation) int64 {
	bs := st.netBlocks[i]
	if len(bs) < 2 {
		return 0
	}
	minX, minY := g.center(bs[0])
	maxX, maxY := minX, minY
	for _, b := range bs[1:] {
		x, y := g.center(b)
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	return (maxX - minX) + (maxY - minY)
}

// netWLOf computes one net's weighted HPWL over g's rectangles.
func (st *state) netWLOf(i int, g *generation) float64 {
	return st.weights[i] * float64(st.netHPWL(i, g))
}

// costOf folds g's cached terms into the annealing cost. Area (nm²)
// dominates numerically; wire and symmetry terms are scaled to
// comparable magnitude via sqrt(area).
func (st *state) costOf(g *generation) evalResult {
	wl := 0.0
	for _, v := range g.netWL {
		wl += v
	}
	scale := math.Sqrt(g.area) + 1
	return evalResult{cost: g.area + wireWeight*wl*scale/100 + symWeight*g.symErr*scale/10}
}

// evaluateFull recomputes every term of the current generation from
// scratch — the ground truth the incremental path must match
// bit-for-bit.
func (st *state) evaluateFull() evalResult {
	g := &st.gens[st.cur]
	st.computeCoords(g)
	for i := range g.netWL {
		g.netWL[i] = st.netWLOf(i, g)
	}
	g.symErr = st.symViolation(g)
	return st.costOf(g)
}

// evaluateIncremental evaluates the moved solution into the other
// generation: it re-derives coordinates in one pass, then
// delta-updates the wirelength and symmetry terms for the blocks
// whose rectangles actually moved. The pre-move generation stays as
// it was, so a rejected move is undone by undoEval.
func (st *state) evaluateIncremental() evalResult {
	prev := &st.gens[st.cur]
	st.cur ^= 1
	g := &st.gens[st.cur]

	st.computeCoords(g)

	copy(g.netWL, prev.netWL)
	symDirty := false
	// A block moved when any edge of its rectangle differs: the XORs
	// OR to non-zero, tested with one branch. Reslicing every column to
	// one length lets the compiler drop the bounds checks.
	n := len(g.x0)
	px0, py0, px1, py1 := prev.x0[:n], prev.y0[:n], prev.x1[:n], prev.y1[:n]
	gy0, gx1, gy1 := g.y0[:n], g.x1[:n], g.y1[:n]
	for b, x0 := range g.x0 {
		if (x0^px0[b])|(gy0[b]^py0[b])|(gx1[b]^px1[b])|(gy1[b]^py1[b]) != 0 {
			for _, ni := range st.netsOf[b] {
				st.netDirty[ni] = true
			}
			if st.partner[b] >= 0 {
				symDirty = true
			}
		}
	}
	for i, dirty := range st.netDirty {
		if dirty {
			st.netDirty[i] = false
			g.netWL[i] = st.netWLOf(i, g)
		}
	}
	g.symErr = prev.symErr
	if symDirty {
		g.symErr = st.symViolation(g)
	}
	return st.costOf(g)
}

// undoEval makes the pre-move generation current again after a
// rejected move (the sequence/variant undo runs separately).
func (st *state) undoEval() {
	st.cur ^= 1
}

// symViolation measures how far each symmetry pair is from mirrored
// placement in g: vertical-axis consistency across pairs plus y
// alignment.
func (st *state) symViolation(g *generation) float64 {
	if len(st.symIx) == 0 {
		return 0
	}
	// All pairs share one axis: use the mean of pair midpoints.
	axis := 0.0
	for _, p := range st.symIx {
		ax, _ := g.center(p[0])
		bx, _ := g.center(p[1])
		axis += float64(ax+bx) / 2
	}
	axis /= float64(len(st.symIx))
	viol := 0.0
	for _, p := range st.symIx {
		ax, _ := g.center(p[0])
		bx, _ := g.center(p[1])
		// Mirror distance mismatch about the common axis.
		da := axis - float64(ax)
		db := float64(bx) - axis
		viol += math.Abs(da - db)
		// Y alignment.
		viol += math.Abs(float64(g.y0[p[0]] - g.y0[p[1]]))
	}
	return viol
}
