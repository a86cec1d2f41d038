package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/obs"
)

// smallCircuits are the four benchmark circuits whose optimized flow
// takes well under a second; the RO-VCO is the one that takes seconds.
var smallCircuits = []string{"csamp", "ota5t", "strongarm", "telescopic"}

// vcoPoints are the control voltages of circuits.ROVCO's curve; a
// traced vco_cold op re-evaluates each one on its own netlist.
var vcoPoints = []float64{0.35, 0.40, 0.45, 0.50, 0.60, 0.80}

// input is one flow request: a circuit and a placement seed.
type input struct {
	circuit string
	seed    int64
}

func (in input) key() string { return fmt.Sprintf("%s/seed%d", in.circuit, in.seed) }

// placementSeeds draws n distinct placement seeds in 1..12, the range
// whose layouts were checked clean on every circuit.
func placementSeeds(rng *rand.Rand, n int) []int64 {
	perm := rng.Perm(12)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(perm[i] + 1)
	}
	return out
}

// inputCycle is a workload's fixed op order: one round per seed, each
// round every circuit once in shuffled order. Any run of ops then
// holds the circuits in equal shares, up to one partial round, so the
// latency mix does not depend on where a phase stops.
func inputCycle(rng *rand.Rand, names []string, seeds []int64) []input {
	var cycle []input
	for _, s := range seeds {
		round := make([]input, len(names))
		for i, c := range names {
			round[i] = input{c, s}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		cycle = append(cycle, round...)
	}
	return cycle
}

// flowLoad runs optimized-mode flows in process, each with a fresh
// in-memory evaluation cache and no disk tier, as `primopt -circuit X
// -mode optimized` runs one.
type flowLoad struct {
	b        *bench
	nclients int
	names    []string
	cycle    []input
	// warmup is batch_cold's untimed pass: one op per circuit.
	warmup []input

	refs    refTable
	mu      sync.Mutex
	outputs map[string]map[string]float64 // input key -> first metrics seen

	sink      *obs.Trace // traced phase with several clients: the process sink
	pointDurs []time.Duration
}

func newVCOCold(b *bench) *flowLoad {
	rng := rand.New(rand.NewSource(b.seed))
	return &flowLoad{
		b: b, nclients: 1, names: []string{"rovco"},
		cycle:   inputCycle(rng, []string{"rovco"}, placementSeeds(rng, 4)),
		outputs: map[string]map[string]float64{},
	}
}

// smallSeeds is how many placement seeds batch_cold and serve_warm
// draw per circuit. StrongARM's post-layout gap ranges over 69–114 %
// across seeds; with 4 of the 12 seeds quality_gap_pct would swing by
// about 9 % (quartile spread over workload seeds), with 10 by about 3 %.
const smallSeeds = 10

func newBatchCold(b *bench) *flowLoad {
	rng := rand.New(rand.NewSource(b.seed))
	seeds := placementSeeds(rng, smallSeeds)
	w := &flowLoad{
		b: b, nclients: 2, names: smallCircuits,
		cycle:   inputCycle(rng, smallCircuits, seeds),
		outputs: map[string]map[string]float64{},
	}
	// A fixed order keeps the warm-up's length independent of the seed.
	for _, c := range smallCircuits {
		w.warmup = append(w.warmup, input{c, seeds[0]})
	}
	return w
}

func (w *flowLoad) clients() int { return w.nclients }

// setup computes each circuit's schematic reference metrics (the base
// of quality_gap_pct) and, for batch_cold, runs the warm-up pass.
func (w *flowLoad) setup(ctx context.Context, sp *obs.Span) error {
	w.refs.compute(ctx, w.b, sp, w.names)
	if len(w.warmup) == 0 {
		return nil
	}
	wsp := sp.Start("bench.warmup")
	defer wsp.End()
	w.b.pass(ctx, wsp, w.nclients, len(w.warmup), func(ctx context.Context, o *op) error {
		_, err := w.runFlow(ctx, o, w.warmup[o.i])
		return err
	})
	return nil
}

func (w *flowLoad) op(ctx context.Context, o *op) error {
	in := w.cycle[o.i%len(w.cycle)]
	res, err := w.runFlow(ctx, o, in)
	if err != nil || !o.traced || in.circuit != "rovco" {
		return err
	}
	return w.evalPoints(ctx, res)
}

// runFlow runs and checks one optimized flow. A traced op gets its own
// trace for the flow's spans and counters; with one client that trace
// is also the process sink, so the SPICE layer's counters (and its
// duplicate-deck scope) belong to the op alone.
func (w *flowLoad) runFlow(ctx context.Context, o *op, in input) (*flow.Result, error) {
	o.input = in.key()
	bm, err := circuits.Build(w.b.tech, in.circuit, 0)
	if err != nil {
		return nil, err
	}
	p := flow.Params{Seed: in.seed}
	p.Optimize.Cache = evcache.New()
	p.Verify.Mode = flow.VerifyWarn
	var tr *obs.Trace
	if o.traced {
		tr = obs.New()
		p.Trace = tr
		if w.sink == nil {
			obs.SetDefault(tr)
		}
		o.base = time.Now()
	}
	var res *flow.Result
	o.timed(func() { res, err = flow.RunContext(ctx, w.b.tech, bm, flow.Optimized, p) })
	if o.traced {
		if w.sink == nil {
			obs.SetDefault(nil)
		}
		o.sub, _ = tr.Snapshot()
		o.counters = counterValues(tr)
	}
	if err != nil {
		return nil, err
	}
	return res, w.check(in, res)
}

// check is the per-op correctness check: a clean DRC/LVS report, no
// degradation, and the same metrics as every earlier op on the same
// input; the first op on an input checks them complete and finite.
func (w *flowLoad) check(in input, res *flow.Result) error {
	if len(res.Degraded) > 0 {
		return fmt.Errorf("degraded: %v", res.Degraded)
	}
	if res.Verify == nil {
		return fmt.Errorf("no layout verification report")
	}
	if !res.Verify.Clean() {
		return fmt.Errorf("layout verification: %s", res.Verify.Summary())
	}
	w.mu.Lock()
	prev, seen := w.outputs[in.key()]
	if !seen {
		w.outputs[in.key()] = res.Metrics
	}
	w.mu.Unlock()
	if seen {
		return sameMetrics(prev, res.Metrics)
	}
	gap, err := w.refs.gap(in.circuit, res.Metrics)
	if err != nil {
		return err
	}
	w.b.noteGap(in.key(), gap)
	return nil
}

// evalPoints times circuits.EvalVCOAtCtx at each control voltage on
// the op's post-layout netlist, with no process sink installed so the
// calls leave the op's counters alone.
func (w *flowLoad) evalPoints(ctx context.Context, res *flow.Result) error {
	for _, v := range vcoPoints {
		sp := w.b.spans.start("bench.eval_point")
		sp.SetAttr("vctrl", v)
		t0 := time.Now()
		_, _, err := circuits.EvalVCOAtCtx(ctx, w.b.tech, res.Netlist, v)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return fmt.Errorf("EvalVCOAtCtx(%.2f): %w", v, err)
		}
		w.mu.Lock()
		w.pointDurs = append(w.pointDurs, d)
		w.mu.Unlock()
	}
	return nil
}

// beginPhase installs one process sink for a traced phase with several
// clients: concurrent ops cannot each own it.
func (w *flowLoad) beginPhase(traced bool) *obs.Trace {
	if traced && w.nclients > 1 {
		w.sink = obs.New()
		obs.SetDefault(w.sink)
	}
	return w.sink
}

func (w *flowLoad) endPhase(*phase) {
	if w.sink != nil {
		obs.SetDefault(nil)
		w.sink = nil
	}
}

// layers adds the EvalVCOAtCtx point times and, where clients shared
// the sink, the duplicate-deck ratio of a serial probe.
func (w *flowLoad) layers(ctx context.Context, m map[string]float64) {
	if len(w.pointDurs) > 0 {
		m["circuits.eval_point_ms_p50"] = ms(median(durs(w.pointDurs)))
		m["circuits.eval_point_ms_max"] = ms(slices.Max(w.pointDurs))
	}
	if w.nclients > 1 {
		m["spice.unique_deck_ratio"] = w.deckProbe(ctx)
	}
}

// deckProbe measures spice.unique_deck_ratio where the timed phase
// cannot: the process-wide duplicate-deck set has one scope, the
// installed sink, so it counts a deck as a duplicate only within one
// op when that op runs alone with its own sink. The probe runs the
// cycle's first round (every circuit once) that way, serially.
func (w *flowLoad) deckProbe(ctx context.Context) float64 {
	var decks, dups int64
	sp := w.b.spans.start("bench.deck_probe")
	defer sp.End()
	round := func(i int) bool { return i < len(w.names) }
	w.b.drive(ctx, 1, sp, true, round, func(ctx context.Context, o *op) error {
		_, err := w.runFlow(ctx, o, w.cycle[o.i])
		w.b.spans.add(o)
		decks += o.counters["spice.decks"]
		dups += o.counters["spice.duplicate_decks"]
		return err
	}, nil)
	return 1 - ratio(dups, decks, 0)
}

func (w *flowLoad) close() error {
	obs.SetDefault(nil)
	return nil
}

// refTable holds each circuit's schematic metrics, the reference of
// quality_gap_pct.
type refTable struct {
	mu    sync.Mutex
	sch   map[string]map[string]float64
	order map[string][]string
}

// compute runs each circuit's schematic evaluation as one op; every
// set-up repetition must reproduce the first one's metrics.
func (r *refTable) compute(ctx context.Context, b *bench, parent *obs.Span, names []string) {
	sp := parent.Start("bench.schematic_refs")
	defer sp.End()
	b.pass(ctx, sp, 1, len(names), func(ctx context.Context, o *op) error {
		name := names[o.i]
		o.input = name + "/schematic"
		bm, err := circuits.Build(b.tech, name, 0)
		if err != nil {
			return err
		}
		res, err := flow.RunContext(ctx, b.tech, bm, flow.Schematic, flow.Params{})
		if err != nil {
			return err
		}
		if err := checkMetrics(bm.MetricOrder, res.Metrics); err != nil {
			return err
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.sch == nil {
			r.sch, r.order = map[string]map[string]float64{}, map[string][]string{}
		}
		if prev, ok := r.sch[name]; ok {
			return sameMetrics(prev, res.Metrics)
		}
		r.sch[name], r.order[name] = res.Metrics, bm.MetricOrder
		return nil
	})
}

// gap checks a circuit's post-layout metrics (every reported one
// present and finite) and returns their quality gap.
func (r *refTable) gap(circuit string, post map[string]float64) (float64, error) {
	r.mu.Lock()
	order, sch := r.order[circuit], r.sch[circuit]
	r.mu.Unlock()
	if err := checkMetrics(order, post); err != nil {
		return 0, err
	}
	return qualityGap(order, post, sch)
}

// checkMetrics requires every reported metric, each finite.
func checkMetrics(order []string, got map[string]float64) error {
	for _, k := range order {
		v, ok := got[k]
		if !ok {
			return fmt.Errorf("metric %s missing", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", k, v)
		}
	}
	return nil
}

// sameMetrics requires bit-identical metric sets.
func sameMetrics(want, got map[string]float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		return fmt.Errorf("metric set changed: %d keys, earlier %d", len(got), len(want))
	}
	for _, k := range keys {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Errorf("metric %s = %v, earlier op on the same input gave %v", k, got[k], want[k])
		}
	}
	return nil
}
