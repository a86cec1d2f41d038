// Package place is the simulated-annealing placer of the flow (Fig. 1,
// based on the sequence-pair formulation of Ma et al. [18] that the
// paper's substrate uses). Blocks are placed via a sequence pair
// (overlap-free by construction); the annealer's move set swaps
// blocks in either or both sequences and — the hook that makes the
// paper's primitive-level optimization useful — switches each block
// among the n optimized layout variants with different aspect ratios
// that Algorithm 1 produced. Symmetry groups (matched primitives that
// must share a horizontal axis, mirrored about a common vertical
// axis) are honored through a penalty term that the schedule drives
// to zero.
//
// The engine is multi-start: K independently seeded replicas anneal
// concurrently under a bounded worker pool, each with an incremental
// cost evaluator (see eval.go), and a deterministic min-cost /
// lowest-replica-index reduction picks the winner. For a given seed
// the output is byte-identical regardless of worker count.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"primopt/internal/fault"
	"primopt/internal/geom"
	"primopt/internal/obs"
)

// Variant is one layout option of a block (an Algorithm 1 output).
type Variant struct {
	W, H int64
	// Tag identifies the option (e.g. the cellgen config ID).
	Tag string
}

// Block is one placeable primitive.
type Block struct {
	Name     string
	Variants []Variant
}

// Net connects named blocks (half-perimeter wirelength over block
// centers).
type Net struct {
	Name   string
	Blocks []string
	// Weight scales the net's HPWL contribution (critical nets can be
	// weighted up).
	Weight float64
}

// SymPair requires blocks A and B to be mirrored about a shared
// vertical axis at the same height.
type SymPair struct {
	A, B string
}

// Params tunes the annealer.
type Params struct {
	Seed        int64
	Iterations  int     // total moves per temperature band, across replicas (default 200)
	CoolingRate float64 // default 0.93
	StartTemp   float64 // default auto
	WireWeight  float64 // HPWL weight vs area (default 1.0)
	SymWeight   float64 // symmetry-violation weight (default 4.0)
	// Replicas is the number of independently seeded annealing chains
	// (default 1). Each replica's seed is derived deterministically
	// from Seed, the per-band move budget is split across replicas,
	// and the best result (ties: lowest replica index) wins, so the
	// output depends only on (Seed, Replicas) — never on scheduling.
	Replicas int
	// Workers bounds how many replicas anneal concurrently (default
	// GOMAXPROCS). The flow threads its SPICE worker knob through
	// here so one flag governs all pools.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Iterations <= 0 {
		p.Iterations = 200
	}
	if p.CoolingRate <= 0 || p.CoolingRate >= 1 {
		p.CoolingRate = 0.93
	}
	if p.WireWeight <= 0 {
		p.WireWeight = 1.0
	}
	if p.SymWeight <= 0 {
		p.SymWeight = 4.0
	}
	if p.Replicas <= 0 {
		p.Replicas = 1
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// replicaIterations splits the per-band move budget across replicas.
// The split is sublinear (80% of the even share): K independent
// restarts escape local minima more cheaply than one long chain's
// extra equilibration, so best-of-K quality holds at a smaller
// aggregate budget — which is also what makes replicas reduce wall
// time even on a single core. A floor keeps deep splits long enough
// to equilibrate each band.
func (p Params) replicaIterations() int {
	if p.Replicas == 1 {
		return p.Iterations
	}
	it := p.Iterations * 4 / (5 * p.Replicas)
	if it < 32 {
		it = 32
	}
	if it > p.Iterations {
		it = p.Iterations
	}
	return it
}

// replicaSeed derives replica r's RNG seed from the base seed.
// Replica 0 keeps the base seed (a single-replica run is the classic
// single-chain annealer); higher replicas get splitmix64-style mixed
// seeds so chains decorrelate even for adjacent base seeds.
func replicaSeed(seed int64, r int) int64 {
	if r == 0 {
		return seed
	}
	z := uint64(seed) + uint64(r)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Placement is the placer output.
type Placement struct {
	Pos     map[string]geom.Rect // placed bounding box per block
	Variant map[string]int       // chosen variant index per block
	BBox    geom.Rect
	HPWL    int64
	SymErr  float64 // residual symmetry violation, nm
}

// PlaceCtx runs the annealer and returns the best placement found.
// Each replica polls ctx once per temperature band, so cancellation
// surfaces within one band of moves; a replica that panics or is
// fault-injected fails alone and is excluded from the deterministic
// reduction (all replicas failing fails the placement). The
// place.anneal span nests under the span ctx carries (obs.SpanFrom).
// Tracing is passive: it never touches the RNG stream.
func PlaceCtx(ctx context.Context, blocks []Block, nets []Net, sym []SymPair, p Params) (*Placement, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("place: no blocks")
	}
	p = p.withDefaults()
	st := newState(blocks, nets, sym)
	for i, b := range blocks {
		if len(b.Variants) == 0 {
			return nil, fmt.Errorf("place: block %s has no variants", b.Name)
		}
		if _, dup := st.index[b.Name]; dup {
			return nil, fmt.Errorf("place: duplicate block %s", b.Name)
		}
		st.index[b.Name] = i
	}
	for _, n := range nets {
		for _, bn := range n.Blocks {
			if _, ok := st.index[bn]; !ok {
				return nil, fmt.Errorf("place: net %s references unknown block %s", n.Name, bn)
			}
		}
	}
	for _, sp := range sym {
		if _, ok := st.index[sp.A]; !ok {
			return nil, fmt.Errorf("place: symmetry pair references unknown block %s", sp.A)
		}
		if _, ok := st.index[sp.B]; !ok {
			return nil, fmt.Errorf("place: symmetry pair references unknown block %s", sp.B)
		}
	}
	st.buildTopology()

	tr := obs.From(ctx)
	sp := obs.StartSpan(tr, obs.SpanFrom(ctx), "place.anneal")
	sp.SetAttr("blocks", len(blocks))
	sp.SetAttr("nets", len(nets))
	sp.SetAttr("replicas", p.Replicas)
	sp.SetAttr("workers", p.Workers)
	sp.SetAttr("iters_per_band", p.replicaIterations())

	// Fan the replicas out under the worker pool. Every replica is
	// fully deterministic given its derived seed, and the reduction
	// below is order-free, so worker count never changes the result.
	inj := fault.From(ctx)
	results := make([]replicaResult, p.Replicas)
	sem := make(chan struct{}, p.Workers)
	var wg sync.WaitGroup
	for r := 0; r < p.Replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[r] = safeReplica(ctx, inj, st, r, p, tr, sp)
		}(r)
	}
	wg.Wait()
	tr.Counter("place.replicas").Add(int64(p.Replicas))
	tr.Counter("place.anneal.runs").Inc()

	// Deterministic reduction: minimum best cost among the healthy
	// replicas, ties to the lowest replica index (strict < keeps the
	// earlier winner). Failed replicas are excluded — the survivors'
	// outcomes are unchanged by the failures, so a fault-injected or
	// panicked chain degrades multi-start quality without perturbing
	// determinism. Every replica failing fails the placement.
	winner := -1
	failed := 0
	var firstErr error
	for r := 0; r < p.Replicas; r++ {
		if results[r].err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d: %w", r, results[r].err)
			}
			continue
		}
		if winner < 0 || results[r].best < results[winner].best {
			winner = r
		}
	}
	if failed > 0 {
		tr.Counter("place.replica_failures").Add(int64(failed))
		sp.SetAttr("failed_replicas", failed)
	}
	if winner < 0 {
		sp.End()
		return nil, fmt.Errorf("place: all %d replicas failed: %w", p.Replicas, firstErr)
	}
	win := results[winner]
	tr.Gauge("place.anneal.best_cost").Set(win.best)
	sp.SetAttr("best_replica", winner)
	sp.SetAttr("best_cost", win.best)
	sp.SetAttr("bands", win.bands)
	sp.End()

	st.restore(win.snap)
	return st.placement(), nil
}

// replicaResult is one chain's outcome entering the reduction. A
// non-nil err marks a failed chain (panic, injected fault, or
// cancellation) that the reduction must skip.
type replicaResult struct {
	best  float64
	snap  snapshot
	bands int
	err   error
}

// safeReplica runs one replica with panic containment and the
// place.replica fault site armed at its entry. A panicking chain
// becomes that replica's error instead of killing the process.
func safeReplica(ctx context.Context, inj *fault.Injector, template *state, r int, p Params, tr *obs.Trace, parent *obs.Span) (res replicaResult) {
	defer func() {
		if rec := recover(); rec != nil {
			tr.Counter("place.replica_panics").Inc()
			if e, ok := rec.(error); ok {
				res = replicaResult{err: fmt.Errorf("recovered panic: %w", e)}
			} else {
				res = replicaResult{err: fmt.Errorf("recovered panic: %v", rec)}
			}
		}
	}()
	if err := inj.Hit(ctx, fault.SitePlaceReplica); err != nil {
		return replicaResult{err: err}
	}
	return runReplica(ctx, template, r, p, tr, parent)
}

// runReplica anneals one independently seeded chain on a private
// clone of the shared topology.
func runReplica(ctx context.Context, template *state, r int, p Params, tr *obs.Trace, parent *obs.Span) replicaResult {
	seed := replicaSeed(p.Seed, r)
	rng := rand.New(rand.NewSource(seed))
	st := template.clone()

	rsp := obs.StartSpan(tr, parent, "place.replica")
	rsp.SetAttr("replica", r)
	rsp.SetAttr("seed", seed)

	cur := st.evaluateFull(p)
	best := cur
	bestSnap := st.snapshot()

	temp := p.StartTemp
	if temp <= 0 {
		temp = cur.cost * 0.5
		if temp <= 0 {
			temp = 1
		}
	}
	rsp.SetAttr("start_temp", temp)
	// Schedule traces, recorded per temperature band only when
	// tracing is on (the annealer itself never reads them).
	enabled := tr.Enabled()
	var temps, accRates, bestTrace []float64
	var totalMoves, totalAccepted int64
	n := len(st.blocks)
	iters := p.replicaIterations()
	bands := 0
	// The schedule anchors to the monotone best cost — not the
	// fluctuating current cost, which let an accepted uphill move
	// lengthen the schedule and a lucky downhill excursion truncate
	// it.
	for ; temp > best.cost*1e-4+1e-9; temp *= p.CoolingRate {
		// Cancellation polls once per band — bounded staleness without
		// a per-move branch on the hot path.
		if err := ctx.Err(); err != nil {
			rsp.SetAttr("canceled", true)
			rsp.End()
			return replicaResult{err: err}
		}
		accepted := 0
		for it := 0; it < iters; it++ {
			mv, changed := st.randomMove(rng, n)
			next := cur
			if changed {
				next = st.evaluateIncremental(p)
				if debugCheckIncremental {
					if full := st.evaluateFull(p); full.cost != next.cost {
						//lint:allow errflow debug-only consistency assertion behind the debugCheckIncremental build constant; compiled out in production
						panic(fmt.Sprintf("place: incremental cost %v != full cost %v", next.cost, full.cost))
					}
				}
			}
			d := next.cost - cur.cost
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				cur = next
				accepted++
				if cur.cost < best.cost {
					best = cur
					bestSnap.save(st)
				}
			} else {
				st.undo(mv)
				if changed {
					st.undoEval()
				}
			}
		}
		bands++
		if enabled {
			rate := float64(accepted) / float64(iters)
			temps = append(temps, temp)
			accRates = append(accRates, rate)
			bestTrace = append(bestTrace, best.cost)
			totalMoves += int64(iters)
			totalAccepted += int64(accepted)
			tr.Histogram("place.anneal.acceptance_rate").Observe(rate)
		}
		if temp < 1e-6 {
			break
		}
	}
	rsp.SetAttr("bands", bands)
	rsp.SetAttr("best_cost", best.cost)
	if enabled {
		tr.Counter("place.anneal.moves").Add(totalMoves)
		tr.Counter("place.anneal.accepted").Add(totalAccepted)
		rsp.SetAttr("temp_trace", obs.Downsample(temps, 64))
		rsp.SetAttr("accept_trace", obs.Downsample(accRates, 64))
		rsp.SetAttr("best_trace", obs.Downsample(bestTrace, 64))
	}
	rsp.End()
	return replicaResult{best: best.cost, snap: bestSnap, bands: bands}
}

// debugCheckIncremental, when set (tests only), re-evaluates every
// move with the full evaluator and panics on any divergence from the
// incremental result — the delta-eval == full-eval invariant.
var debugCheckIncremental bool

type evalResult struct {
	cost float64
}

type snapshot struct {
	gammaP, gammaM, varIx []int
}

func (st *state) snapshot() snapshot {
	return snapshot{
		gammaP: append([]int(nil), st.gammaP...),
		gammaM: append([]int(nil), st.gammaM...),
		varIx:  append([]int(nil), st.varIx...),
	}
}

// save overwrites s with st's solution in place, so recording a new
// best costs no allocation.
func (s *snapshot) save(st *state) {
	copy(s.gammaP, st.gammaP)
	copy(s.gammaM, st.gammaM)
	copy(s.varIx, st.varIx)
}

func (st *state) restore(s snapshot) {
	copy(st.gammaP, s.gammaP)
	copy(st.gammaM, s.gammaM)
	copy(st.varIx, s.varIx)
}

// moveKind is the kind of one annealing move.
type moveKind uint8

const (
	moveSwapP    moveKind = iota // swap two blocks in Γ+
	moveSwapM                    // swap two blocks in Γ-
	moveRelocate                 // swap two blocks in both sequences
	moveVariant                  // change a block's variant
)

// move records one applied perturbation: enough to undo it in place.
// It is a plain value, so a move costs no allocation.
type move struct {
	kind      moveKind
	i, j      int // swapped positions: in Γ+ (swapP, relocate) or Γ- (swapM)
	k, l      int // relocate: the swapped positions in Γ-
	b, q      int // variant: the block, and its symmetry partner or -1
	old, oldQ int // variant: the previous variant indices of b and q
}

// randomMove perturbs the state, returning the move and whether it
// can change the layout at all (an i==j swap or a same-index variant
// pick is a no-op the evaluator skips).
func (st *state) randomMove(rng *rand.Rand, n int) (move, bool) {
	kind := moveKind(rng.Intn(4))
	if n == 1 {
		kind = moveVariant
	}
	switch kind {
	case moveSwapP:
		i, j := rng.Intn(n), rng.Intn(n)
		st.gammaP[i], st.gammaP[j] = st.gammaP[j], st.gammaP[i]
		return move{kind: kind, i: i, j: j}, i != j
	case moveSwapM:
		i, j := rng.Intn(n), rng.Intn(n)
		st.gammaM[i], st.gammaM[j] = st.gammaM[j], st.gammaM[i]
		return move{kind: kind, i: i, j: j}, i != j
	case moveRelocate:
		i, j := rng.Intn(n), rng.Intn(n)
		st.gammaP[i], st.gammaP[j] = st.gammaP[j], st.gammaP[i]
		k, l := st.findM(st.gammaP[i]), st.findM(st.gammaP[j])
		st.gammaM[k], st.gammaM[l] = st.gammaM[l], st.gammaM[k]
		return move{kind: kind, i: i, j: j, k: k, l: l}, i != j
	default:
		b := rng.Intn(n)
		old := st.varIx[b]
		if q := st.partner[b]; q >= 0 {
			// Symmetry-pair members must anneal variants in lockstep:
			// matched primitives with different aspect-ratio layouts
			// are not matched at all. Draw from the indices both
			// halves support and move (and undo) the pair together.
			nv := len(st.blocks[b].Variants)
			if nq := len(st.blocks[q].Variants); nq < nv {
				nv = nq
			}
			oldQ := st.varIx[q]
			ni := rng.Intn(nv)
			st.varIx[b], st.varIx[q] = ni, ni
			return move{kind: moveVariant, b: b, q: q, old: old, oldQ: oldQ}, ni != old || ni != oldQ
		}
		ni := rng.Intn(len(st.blocks[b].Variants))
		st.varIx[b] = ni
		return move{kind: moveVariant, b: b, q: -1, old: old}, ni != old
	}
}

// undo reverts m, which must be the last move applied to st.
func (st *state) undo(m move) {
	switch m.kind {
	case moveSwapP:
		st.gammaP[m.i], st.gammaP[m.j] = st.gammaP[m.j], st.gammaP[m.i]
	case moveSwapM:
		st.gammaM[m.i], st.gammaM[m.j] = st.gammaM[m.j], st.gammaM[m.i]
	case moveRelocate:
		st.gammaM[m.k], st.gammaM[m.l] = st.gammaM[m.l], st.gammaM[m.k]
		st.gammaP[m.i], st.gammaP[m.j] = st.gammaP[m.j], st.gammaP[m.i]
	case moveVariant:
		if m.q >= 0 {
			st.varIx[m.b], st.varIx[m.q] = m.old, m.oldQ
		} else {
			st.varIx[m.b] = m.old
		}
	}
}

func (st *state) findM(block int) int {
	for i, b := range st.gammaM {
		if b == block {
			return i
		}
	}
	return -1
}

// placement renders the current state as the output structure.
func (st *state) placement() *Placement {
	rects := make([]geom.Rect, len(st.blocks))
	st.computeCoords(rects)
	out := &Placement{Pos: map[string]geom.Rect{}, Variant: map[string]int{}}
	var bbox geom.Rect
	for i, b := range st.blocks {
		out.Pos[b.Name] = rects[i]
		out.Variant[b.Name] = st.varIx[i]
		bbox = bbox.Union(rects[i])
	}
	out.BBox = bbox
	for _, net := range st.nets {
		pts := make([]geom.Point, 0, len(net.Blocks))
		for _, bn := range net.Blocks {
			pts = append(pts, rects[st.index[bn]].Center())
		}
		out.HPWL += geom.HPWL(pts)
	}
	out.SymErr = st.symViolation(rects)
	return out
}
