// Package optimize implements Algorithm 1 of the paper: primitive
// layout optimization. Given a primitive, its sizing, and the bias
// conditions from the circuit-level schematic simulation, it
//
//  1. (primitive selection) generates every legal layout
//     configuration, simulates each one's performance metrics against
//     the extracted parasitics and LDEs, computes the weighted cost of
//     Eq. (5), bins the options by bounding-box aspect ratio, and
//     selects the minimum-cost option per bin; and
//  2. (primitive tuning) sweeps the parallel-wire count of each tuning
//     terminal of the selected options — independently for
//     uncorrelated terminals, jointly for correlated groups — stopping
//     at the cost minimum or the point of maximum curvature for
//     monotone curves.
//
// The result is the small set of high-quality layout choices, with
// different aspect ratios, handed to the placer (Fig. 1).
//
// All SPICE evaluations funnel through two leaves, evalEnv.eval for
// layouts and Reference for the schematic reference, memoized in the
// evaluation cache; layout evaluations are bounded by the
// Params.Workers semaphore. Repeated configurations are served as
// evcache hits instead of fresh extractions and deck runs.
package optimize

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"primopt/internal/cellgen"
	"primopt/internal/cost"
	"primopt/internal/evcache"
	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/numeric"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// Option is one evaluated layout configuration. Layout, Ex, Eval and
// Values are the cache's stored entry, shared with every other caller
// and immutable: clone a layout before changing it (tuning does).
type Option struct {
	Layout *cellgen.Layout
	Ex     *extract.Extracted
	Eval   *primlib.Eval
	Cost   float64 // Eq. (5), percent points
	Values []cost.Value
	Bin    int
}

// maxJointWires bounds each axis of a correlated group's joint
// wire-count enumeration.
const maxJointWires = 5

// Params configures the optimization.
type Params struct {
	Bins     int // aspect-ratio bins / options handed to the placer (default 3)
	MaxWires int // tuning sweep limit per terminal (default 8)
	// Workers bounds concurrent simulations (default 8). The paper
	// leans on the independence of the per-option simulations.
	Workers int
	Cons    *cellgen.Constraints
	// Cache is the sharing scope of the memoized evaluations: every
	// Optimize call given the same cache (all primitive instances of
	// one flow, typically) shares its entries. Nil gives the call a
	// private cache. The scope changes only how much SPICE work
	// repeats, never a result.
	Cache *evcache.Cache
}

func (p Params) withDefaults() Params {
	if p.Bins <= 0 {
		p.Bins = 3
	}
	if p.MaxWires <= 0 {
		p.MaxWires = 8
	}
	if p.Workers <= 0 {
		p.Workers = 8
	}
	if p.Cache == nil {
		p.Cache = evcache.New()
	}
	return p
}

// Result is the outcome of Algorithm 1 for one primitive.
type Result struct {
	Entry     *primlib.Entry
	Sizing    primlib.Sizing
	Bias      primlib.Bias
	Schematic *primlib.Eval
	Metrics   []cost.Metric

	// AllOptions holds every evaluated configuration from the
	// selection step (the paper's Table III rows), sorted by bin then
	// cost. Tuning operates on deep copies, so these rows keep their
	// selection-phase wire counts after Optimize returns.
	AllOptions []Option

	// Selected holds the tuned minimum-cost option per aspect-ratio
	// bin — the choices handed to the placer.
	//
	// The layouts, extractions and evals of both lists, and Schematic,
	// are shared with the cache (see Option): clone before mutating.
	Selected []Option

	// TotalSims counts SPICE deck runs across all steps (Table V).
	SelectionSims int
	TuningSims    int
}

// TotalSims returns the overall simulation count.
func (r *Result) TotalSims() int { return r.SelectionSims + r.TuningSims }

// Best returns the lowest-cost selected option.
func (r *Result) Best() *Option {
	if len(r.Selected) == 0 {
		return nil
	}
	best := &r.Selected[0]
	for i := range r.Selected[1:] {
		if r.Selected[i+1].Cost < best.Cost {
			best = &r.Selected[i+1]
		}
	}
	return best
}

// OptimizeCtx runs Algorithm 1. Every SPICE evaluation underneath
// polls ctx for cancellation and reports to its trace, and the
// context's fault injector arms the extract/spice/evcache fault
// sites. The optimize.select and optimize.tune spans nest under the
// span ctx carries (obs.SpanFrom). pdkFP is t.Fingerprint(), which a
// caller running many optimizations on one Tech computes once.
func OptimizeCtx(ctx context.Context, t *pdk.Tech, pdkFP string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, p Params) (*Result, error) {
	p = p.withDefaults()
	res := &Result{Entry: e, Sizing: sz, Bias: bias}
	tr := obs.From(ctx)

	sel := obs.StartSpan(tr, obs.SpanFrom(ctx), "optimize.select")
	// Line 3 precondition: schematic reference and cost metrics. Every
	// key of this call shares the primitive's prefix.
	pre := evcache.NewKeyPrefix(pdkFP, e, sz, bias)
	sch, metrics, err := reference(ctx, t, pre.Key(nil, nil), e, sz, bias, p.Cache)
	if err != nil {
		sel.End()
		return nil, err
	}
	res.Schematic, res.Metrics = sch, metrics

	env := &evalEnv{
		ctx: ctx, inj: fault.From(ctx),
		t: t, pre: pre, e: e, sz: sz, bias: bias, metrics: metrics,
		cache: p.Cache, tr: tr,
		sem: make(chan struct{}, p.Workers),
	}

	// Step 1 (lines 3–7): evaluate every layout option.
	layouts, err := e.FindLayouts(ctx, t, sz, p.Cons)
	if err != nil {
		sel.End()
		return nil, err
	}
	opts := make([]Option, len(layouts))
	errs := make([]error, len(layouts))
	var wg sync.WaitGroup
	for i, lay := range layouts {
		wg.Add(1)
		go func(i int, lay *cellgen.Layout) {
			defer wg.Done()
			errs[i] = guard(tr, task{kind: "selection config", cfg: lay.Config}, func() error {
				opt, err := env.eval(lay)
				if err != nil {
					return err
				}
				opts[i] = *opt
				return nil
			})
		}(i, lay)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sel.End()
			return nil, fmt.Errorf("optimize: selection: %w", err)
		}
	}
	for i := range opts {
		res.SelectionSims += opts[i].Eval.Sims
	}

	// Line 6: aspect-ratio binning (log scale).
	assignBins(opts, p.Bins)
	sort.SliceStable(opts, func(i, j int) bool {
		if opts[i].Bin != opts[j].Bin {
			return opts[i].Bin < opts[j].Bin
		}
		return opts[i].Cost < opts[j].Cost
	})
	res.AllOptions = opts

	// Line 7: minimum-cost option per bin.
	var selected []Option
	seen := map[int]bool{}
	for _, o := range opts {
		if !seen[o.Bin] {
			seen[o.Bin] = true
			selected = append(selected, o)
		}
	}
	if tr.Enabled() {
		tr.Counter("optimize.sims.selection").Add(int64(res.SelectionSims))
		sel.SetAttr("prim", e.Kind)
		sel.SetAttr("configs", len(layouts))
		sel.SetAttr("bins_filled", len(selected))
		sel.SetAttr("sims", res.SelectionSims)
	}
	sel.End()

	// Step 2 (lines 8–15): tuning each selected option. The options
	// are independent (distinct aspect-ratio bins), so they tune in
	// parallel; each individual evaluation still respects the Workers
	// bound through env.eval.
	tune := obs.StartSpan(tr, obs.SpanFrom(ctx), "optimize.tune")
	tuneSims := make([]int, len(selected))
	tuneErrs := make([]error, len(selected))
	var twg sync.WaitGroup
	for i := range selected {
		twg.Add(1)
		go func(i int) {
			defer twg.Done()
			tuneErrs[i] = guard(tr, task{kind: "tuning", cfg: selected[i].Layout.Config}, func() error {
				var err error
				tuneSims[i], err = tuneOption(env, &selected[i], p)
				return err
			})
		}(i)
	}
	twg.Wait()
	for i, err := range tuneErrs {
		if err != nil {
			tune.End()
			return nil, fmt.Errorf("optimize: tuning %s: %w", selected[i].Layout.Config.ID(), err)
		}
		res.TuningSims += tuneSims[i]
	}
	res.Selected = selected
	if tr.Enabled() {
		tr.Counter("optimize.sims.tuning").Add(int64(res.TuningSims))
		ids := make([]string, len(selected))
		for i := range selected {
			ids[i] = selected[i].Layout.Config.ID()
		}
		tune.SetAttr("prim", e.Kind)
		tune.SetAttr("selected", ids)
		tune.SetAttr("sims", res.TuningSims)
	}
	tune.End()
	return res, nil
}

// Reference returns the schematic reference evaluation of a primitive
// and the cost metrics normalized by it, through cache c. It is the
// one schematic-reference leaf: Algorithm 1 starts from it, and the
// flow calls it for a primitive it did not optimize. The reference
// depends only on the kind, the sizing and the bias fields its
// testbenches read, so instances that differ elsewhere (the RO-VCO's
// stages) share one entry. pdkFP is t.Fingerprint().
func Reference(ctx context.Context, t *pdk.Tech, pdkFP string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, c *evcache.Cache) (*primlib.Eval, []cost.Metric, error) {
	return reference(ctx, t, evcache.Key(pdkFP, e, sz, bias, nil, nil), e, sz, bias, c)
}

// reference is Reference under its cache key, the schematic key of
// (e, sz, bias).
func reference(ctx context.Context, t *pdk.Tech, key string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, c *evcache.Cache) (*primlib.Eval, []cost.Metric, error) {
	ent, err := c.DoCtx(ctx, key, func() (*evcache.Entry, error) {
		ev, err := e.EvaluateCtx(ctx, t, sz, bias, nil, nil)
		if err != nil {
			return nil, err
		}
		return &evcache.Entry{Eval: ev}, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("optimize: schematic reference: %w", err)
	}
	metrics, err := e.CostMetrics(t, sz, ent.Eval)
	if err != nil {
		return nil, nil, err
	}
	return ent.Eval, metrics, nil
}

// evalEnv bundles the invariant inputs of one Optimize call so every
// evaluation site goes through the same leaf. The semaphore bounds
// concurrent extract+SPICE work; it is acquired only inside eval's
// compute step, never while waiting on the cache, so nested
// parallelism (selection, per-option tuning, joint-sweep fan-out)
// cannot deadlock.
type evalEnv struct {
	ctx     context.Context
	inj     *fault.Injector
	t       *pdk.Tech
	pre     evcache.KeyPrefix // the primitive's key prefix, once per Optimize call
	e       *primlib.Entry
	sz      primlib.Sizing
	bias    primlib.Bias
	metrics []cost.Metric
	cache   *evcache.Cache
	tr      *obs.Trace
	sem     chan struct{}
}

// eval extracts and simulates one layout configuration through the
// cache. The key and the compute read lay's current wire state, which
// match because each caller owns its layout (selection layouts are
// per-goroutine, tuning works on clones) and does not write it while
// eval runs. The compute extracts a private clone of lay, so the
// entry the cache stores holds no memory the caller goes on writing
// to; the option always holds the shared stored entry.
func (env *evalEnv) eval(lay *cellgen.Layout) (*Option, error) {
	ctx := env.ctx
	key := env.pre.Key(lay, nil)
	ent, err := env.cache.DoCtx(ctx, key, func() (*evcache.Entry, error) {
		select {
		case env.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-env.sem }()
		if err := env.inj.Hit(ctx, fault.SiteExtract); err != nil {
			return nil, fmt.Errorf("extract %s: %w", lay.Config.ID(), err)
		}
		ex, err := extract.Primitive(ctx, env.t, lay.Clone())
		if err != nil {
			return nil, err
		}
		ev, err := env.e.EvaluateCtx(ctx, env.t, env.sz, env.bias, ex, nil)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", lay.Config.ID(), err)
		}
		c, vals, err := primlib.Cost(env.metrics, ev)
		if err != nil {
			return nil, err
		}
		return &evcache.Entry{Layout: ex.Layout, Ex: ex, Eval: ev, Cost: c, Values: vals}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Option{Layout: ent.Layout, Ex: ent.Ex, Eval: ent.Eval, Cost: ent.Cost, Values: ent.Values}, nil
}

// assignBins splits options into equal-width bins of log aspect
// ratio. Degenerate aspect ratios (zero, negative, NaN, Inf) have no
// usable log: those options land in bin 0 and are excluded from the
// bin-range computation, so one malformed layout cannot poison the
// binning of the rest (and no NaN ever reaches a float→int
// conversion, whose result Go leaves unspecified).
func assignBins(opts []Option, bins int) {
	if len(opts) == 0 {
		return
	}
	logAR := make([]float64, len(opts))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range opts {
		ar := opts[i].Layout.AspectRatio
		if ar <= 0 || math.IsNaN(ar) || math.IsInf(ar, 0) {
			logAR[i] = math.NaN()
			continue
		}
		l := math.Log(ar)
		logAR[i] = l
		lo = math.Min(lo, l)
		hi = math.Max(hi, l)
	}
	if hi <= lo { // zero or one usable ratio
		for i := range opts {
			opts[i].Bin = 0
		}
		return
	}
	w := (hi - lo) / float64(bins)
	for i := range opts {
		if math.IsNaN(logAR[i]) {
			opts[i].Bin = 0
			continue
		}
		b := int((logAR[i] - lo) / w)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		opts[i].Bin = b
	}
}

// tuneOption runs the tuning step on one selected option. It works on
// a deep copy of the option's layout: the selection-phase row in
// Result.AllOptions shares the original pointer, which is the cache's
// stored entry, and the paper's Table III data must survive tuning
// unchanged. On success the option is replaced by its tuned
// re-evaluation; on error it is left as selected. Returns the number
// of simulations spent.
func tuneOption(env *evalEnv, opt *Option, p Params) (int, error) {
	work := opt.Layout.Clone()
	sims := 0
	groups := correlationGroups(env.e.Tuning)
	for _, group := range groups {
		if len(group) == 1 {
			// Lines 9–10: uncorrelated — optimize separately.
			n, s, err := sweepTerminal(env, work, group[0], p.MaxWires)
			sims += s
			if err != nil {
				return sims, err
			}
			setWires(work, group[0], n)
		} else {
			// Lines 11–12: correlated — enumerate combinations.
			s, err := sweepJoint(env, work, group, maxJointWires)
			sims += s
			if err != nil {
				return sims, err
			}
		}
	}
	// Re-evaluate the tuned configuration.
	tuned, err := env.eval(work)
	if err != nil {
		return sims, err
	}
	sims += tuned.Eval.Sims
	tuned.Bin = opt.Bin
	*opt = *tuned
	return sims, nil
}

// correlationGroups partitions tuning terminals into singleton groups
// and correlated clusters.
func correlationGroups(terms []primlib.TuningTerm) [][]primlib.TuningTerm {
	byName := make(map[string]primlib.TuningTerm, len(terms))
	for _, tt := range terms {
		byName[tt.Name] = tt
	}
	used := map[string]bool{}
	var out [][]primlib.TuningTerm
	for _, tt := range terms {
		if used[tt.Name] {
			continue
		}
		group := []primlib.TuningTerm{tt}
		used[tt.Name] = true
		// Follow the correlation chain (practically at most two
		// terminals, per the paper).
		next := tt.CorrelatedWith
		//lint:allow ctxpoll terminates without polling: every iteration marks next in used or breaks, bounded by the terminal count
		for next != "" && !used[next] {
			ct, ok := byName[next]
			if !ok {
				break
			}
			group = append(group, ct)
			used[next] = true
			next = ct.CorrelatedWith
		}
		out = append(out, group)
	}
	return out
}

// setWires applies a wire count to every cellgen wire of a terminal.
func setWires(lay *cellgen.Layout, term primlib.TuningTerm, n int) {
	for _, w := range term.Wires {
		if we, ok := lay.Wires[w]; ok {
			we.NWires = n
		}
	}
}

// sweepTerminal sweeps one terminal's wire count and returns the
// chosen count per the paper's stopping rule (cost minimum, or max
// curvature for monotone curves). The sweep is sequential by nature —
// the early exit depends on the previous costs — but each evaluation
// is a cache-visible leaf, so re-tuning a shared configuration is all
// hits. The layout's wire counts are restored on every path.
func sweepTerminal(env *evalEnv, lay *cellgen.Layout, term primlib.TuningTerm, maxW int) (int, int, error) {
	costs := make([]float64, 0, maxW)
	sims := 0
	orig := map[string]int{}
	for _, w := range term.Wires {
		if we, ok := lay.Wires[w]; ok {
			orig[w] = we.NWires
		}
	}
	defer func() {
		for w, n := range orig {
			lay.Wires[w].NWires = n
		}
	}()
	rising := 0
	for n := 1; n <= maxW; n++ {
		setWires(lay, term, n)
		opt, err := env.eval(lay)
		if err != nil {
			return 1, sims, err
		}
		sims += opt.Eval.Sims
		costs = append(costs, opt.Cost)
		// Early exit once the cost has clearly turned upward.
		if n >= 2 && costs[n-1] > costs[n-2] {
			rising++
			if rising >= 2 {
				break
			}
		} else {
			rising = 0
		}
	}
	return numeric.KneeIndex(costs) + 1, sims, nil
}

// sweepJoint enumerates wire-count combinations for a correlated
// group in parallel — each combination on its own deep copy — and
// applies the best (ties broken by enumeration order, keeping the
// result order-independent). The input layout is only written on
// success, so an evaluation error can no longer leave it at an
// arbitrary mid-enumeration assignment.
func sweepJoint(env *evalEnv, lay *cellgen.Layout, group []primlib.TuningTerm, maxW int) (int, error) {
	if len(group) > 2 {
		// The paper notes more than two correlated terminals is rare;
		// bound the enumeration by pairing the first two. Count the
		// truncation so a traced run shows the dropped terminals.
		env.tr.Counter("optimize.joint_group_truncated").Inc()
		group = group[:2]
	}
	var combos [][]int
	idx := make([]int, len(group))
	var enumerate func(k int)
	enumerate = func(k int) {
		if k == len(group) {
			combos = append(combos, append([]int(nil), idx...))
			return
		}
		for n := 1; n <= maxW; n++ {
			idx[k] = n
			enumerate(k + 1)
		}
	}
	enumerate(0)

	costs := make([]float64, len(combos))
	comboSims := make([]int, len(combos))
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	for ci, combo := range combos {
		wg.Add(1)
		go func(ci int, combo []int) {
			defer wg.Done()
			errs[ci] = guard(env.tr, task{kind: "joint sweep", combo: combo}, func() error {
				work := lay.Clone()
				for gi, tt := range group {
					setWires(work, tt, combo[gi])
				}
				opt, err := env.eval(work)
				if err != nil {
					return err
				}
				comboSims[ci] = opt.Eval.Sims
				costs[ci] = opt.Cost
				return nil
			})
		}(ci, combo)
	}
	wg.Wait()
	sims := 0
	for ci := range combos {
		if errs[ci] != nil {
			return sims, errs[ci]
		}
		sims += comboSims[ci]
	}
	best := 0
	for ci := 1; ci < len(combos); ci++ {
		if costs[ci] < costs[best] {
			best = ci
		}
	}
	for gi, tt := range group {
		setWires(lay, tt, combos[best][gi])
	}
	return sims, nil
}

// task names one worker task in a recovered panic's message: a
// selection or tuning task by its configuration, a joint-sweep task
// by its wire counts. guard renders it only when the task panics, so
// the evaluations themselves format nothing.
type task struct {
	kind  string // "selection config", "tuning" or "joint sweep"
	cfg   cellgen.Config
	combo []int
}

func (t task) String() string {
	if t.combo != nil {
		return fmt.Sprintf("%s %v", t.kind, t.combo)
	}
	return t.kind + " " + t.cfg.ID()
}

// guard runs one worker task and converts a panic into that task's
// error, so a crash in a single evaluation fails its task (and is
// counted) instead of killing the process. An injected fault panic
// keeps its identity through the wrap, so fault.IsInjected still
// recognizes it upstream.
func guard(tr *obs.Trace, t task, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tr.Counter("optimize.worker_panics").Inc()
			if e, ok := r.(error); ok {
				err = fmt.Errorf("optimize: %s: recovered panic: %w", t, e)
			} else {
				err = fmt.Errorf("optimize: %s: recovered panic: %v", t, r)
			}
		}
	}()
	return fn()
}
