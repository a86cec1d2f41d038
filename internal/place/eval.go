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
package place

import (
	"math"

	"primopt/internal/geom"
)

// state is one annealing chain's representation: shared immutable
// topology (blocks, nets, symmetry, indexes) plus the chain's mutable
// solution and its incremental-evaluation caches.
type state struct {
	// Immutable after buildTopology; shared across replica clones.
	blocks    []Block
	nets      []Net
	sym       []SymPair
	index     map[string]int
	partner   []int   // sym-pair partner per block, -1 when unpaired
	netBlocks [][]int // per net: member block indices
	netsOf    [][]int // per block: nets it belongs to
	weights   []float64

	// Mutable solution (per replica).
	gammaP []int // sequence pair Γ+
	gammaM []int // sequence pair Γ-
	varIx  []int

	// Incremental caches: current values plus the previous-eval
	// buffers undoEval swaps back on a rejected move.
	rects, rectsPrev   []geom.Rect
	netWL, netWLPrev   []float64
	area, areaPrev     float64
	symErr, symErrPrev float64

	// Scratch for computeCoords and net HPWL (per replica).
	posP, posM []int
	w, h, x, y []int64
	pts        []geom.Point
	netDirty   []bool
}

func newState(blocks []Block, nets []Net, sym []SymPair) *state {
	return &state{blocks: blocks, nets: nets, sym: sym, index: map[string]int{}}
}

// buildTopology fills the shared immutable indexes once the name
// index is validated, and the identity starting solution.
func (st *state) buildTopology() {
	n := len(st.blocks)
	st.partner = make([]int, n)
	for i := range st.partner {
		st.partner[i] = -1
	}
	for _, sp := range st.sym {
		a, b := st.index[sp.A], st.index[sp.B]
		st.partner[a], st.partner[b] = b, a
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
	st.ensureBuffers()
}

// clone returns a chain-private copy: the immutable topology is
// shared, the solution and every cache/scratch buffer is fresh.
func (st *state) clone() *state {
	c := &state{
		blocks: st.blocks, nets: st.nets, sym: st.sym, index: st.index,
		partner: st.partner, netBlocks: st.netBlocks, netsOf: st.netsOf,
		weights: st.weights,
		gammaP:  append([]int(nil), st.gammaP...),
		gammaM:  append([]int(nil), st.gammaM...),
		varIx:   append([]int(nil), st.varIx...),
	}
	c.ensureBuffers()
	return c
}

func (st *state) ensureBuffers() {
	if st.rects != nil {
		return
	}
	n := len(st.blocks)
	st.rects = make([]geom.Rect, n)
	st.rectsPrev = make([]geom.Rect, n)
	st.netWL = make([]float64, len(st.nets))
	st.netWLPrev = make([]float64, len(st.nets))
	st.posP = make([]int, n)
	st.posM = make([]int, n)
	st.w = make([]int64, n)
	st.h = make([]int64, n)
	st.x = make([]int64, n)
	st.y = make([]int64, n)
	st.netDirty = make([]bool, len(st.nets))
}

// computeCoords fills rects with block positions from the sequence
// pair via longest-path accumulation. Scanning Γ+ (for x) and Γ-
// (for y) in order visits every predecessor before its successors —
// left-of and below edges always point forward in those sequences —
// so one O(n²) pass lands on the fixpoint directly.
func (st *state) computeCoords(rects []geom.Rect) {
	posP, posM := st.posP, st.posM
	for i, b := range st.gammaP {
		posP[b] = i
	}
	for i, b := range st.gammaM {
		posM[b] = i
	}
	w, h, x, y := st.w, st.h, st.x, st.y
	for i := range st.blocks {
		v := st.blocks[i].Variants[st.varIx[i]]
		w[i], h[i] = v.W, v.H
	}
	// Left-of: a before b in both sequences.
	for pi, b := range st.gammaP {
		var xb int64
		pm := posM[b]
		for _, a := range st.gammaP[:pi] {
			if posM[a] < pm && x[a]+w[a] > xb {
				xb = x[a] + w[a]
			}
		}
		x[b] = xb
	}
	// Below: a after b in Γ+ and before b in Γ-.
	for mi, b := range st.gammaM {
		var yb int64
		pp := posP[b]
		for _, a := range st.gammaM[:mi] {
			if posP[a] > pp && y[a]+h[a] > yb {
				yb = y[a] + h[a]
			}
		}
		y[b] = yb
	}
	for i := range rects {
		rects[i] = geom.Rect{X0: x[i], Y0: y[i], X1: x[i] + w[i], Y1: y[i] + h[i]}
	}
}

// netWLOf computes one net's weighted HPWL over the given rects.
func (st *state) netWLOf(i int, rects []geom.Rect) float64 {
	pts := st.pts[:0]
	for _, b := range st.netBlocks[i] {
		pts = append(pts, rects[b].Center())
	}
	st.pts = pts
	return st.weights[i] * float64(geom.HPWL(pts))
}

// costOf folds the cached terms into the annealing cost. Area (nm²)
// dominates numerically; wire and symmetry terms are scaled to
// comparable magnitude via sqrt(area).
func (st *state) costOf() evalResult {
	wl := 0.0
	for _, v := range st.netWL {
		wl += v
	}
	scale := math.Sqrt(st.area) + 1
	return evalResult{cost: st.area + wireWeight*wl*scale/100 + symWeight*st.symErr*scale/10}
}

// evaluateFull recomputes every cached term from scratch — the
// ground truth the incremental path must match bit-for-bit.
func (st *state) evaluateFull() evalResult {
	st.ensureBuffers()
	st.computeCoords(st.rects)
	var bbox geom.Rect
	for _, r := range st.rects {
		bbox = bbox.Union(r)
	}
	st.area = float64(bbox.Area())
	for i := range st.nets {
		st.netWL[i] = st.netWLOf(i, st.rects)
	}
	st.symErr = st.symViolation(st.rects)
	return st.costOf()
}

// evaluateIncremental re-derives coordinates in one pass, then
// delta-updates the wirelength and symmetry terms for the blocks
// whose rectangles actually moved. The pre-move caches are parked in
// the *Prev buffers so a rejected move is undone by undoEval.
func (st *state) evaluateIncremental() evalResult {
	st.rects, st.rectsPrev = st.rectsPrev, st.rects
	st.netWL, st.netWLPrev = st.netWLPrev, st.netWL
	st.areaPrev, st.symErrPrev = st.area, st.symErr

	st.computeCoords(st.rects)
	var bbox geom.Rect
	for _, r := range st.rects {
		bbox = bbox.Union(r)
	}
	st.area = float64(bbox.Area())

	copy(st.netWL, st.netWLPrev)
	symDirty := false
	for i := range st.rects {
		if st.rects[i] != st.rectsPrev[i] {
			for _, ni := range st.netsOf[i] {
				st.netDirty[ni] = true
			}
			if st.partner[i] >= 0 {
				symDirty = true
			}
		}
	}
	for i := range st.netDirty {
		if st.netDirty[i] {
			st.netDirty[i] = false
			st.netWL[i] = st.netWLOf(i, st.rects)
		}
	}
	if symDirty {
		st.symErr = st.symViolation(st.rects)
	}
	return st.costOf()
}

// undoEval reverts the caches to their pre-move contents after a
// rejected move (the sequence/variant undo runs separately).
func (st *state) undoEval() {
	st.rects, st.rectsPrev = st.rectsPrev, st.rects
	st.netWL, st.netWLPrev = st.netWLPrev, st.netWL
	st.area, st.symErr = st.areaPrev, st.symErrPrev
}

// symViolation measures how far each symmetry pair is from mirrored
// placement: vertical-axis consistency across pairs plus y alignment.
func (st *state) symViolation(rects []geom.Rect) float64 {
	if len(st.sym) == 0 {
		return 0
	}
	// All pairs share one axis: use the mean of pair midpoints.
	axis := 0.0
	for _, sp := range st.sym {
		ra := rects[st.index[sp.A]]
		rb := rects[st.index[sp.B]]
		axis += float64(ra.Center().X+rb.Center().X) / 2
	}
	axis /= float64(len(st.sym))
	viol := 0.0
	for _, sp := range st.sym {
		ra := rects[st.index[sp.A]]
		rb := rects[st.index[sp.B]]
		// Mirror distance mismatch about the common axis.
		da := axis - float64(ra.Center().X)
		db := float64(rb.Center().X) - axis
		viol += math.Abs(da - db)
		// Y alignment.
		viol += math.Abs(float64(ra.Y0 - rb.Y0))
	}
	return viol
}
