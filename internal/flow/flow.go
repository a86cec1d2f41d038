// Package flow assembles the full hierarchical layout flow of Fig. 1
// and the comparison methodologies of the paper's results section:
//
//   - Schematic: the reference metrics, no layout effects.
//   - Conventional: primitives laid out to meet geometric constraints
//     only (the most compact configuration, single wires everywhere,
//     no parasitic/LDE optimization) — the paper's baseline.
//   - Optimized ("this work"): Algorithm 1 per primitive, simulated
//     annealing placement over the optimized variants, global
//     routing, Algorithm 2 port optimization, then post-layout
//     simulation of the assembled netlist.
//   - Manual: an exhaustive oracle standing in for expert manual
//     layout — the same machinery with the search opened wide.
//
// Assembly splices each primitive's extracted parasitics into a clone
// of the schematic netlist: device LDE/junction parameters on the
// transistors, wire RC π-sections at the primitive terminals, and the
// reconciled global-route RC at the ports.
package flow

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/circuits"
	"primopt/internal/cost"
	"primopt/internal/evcache"
	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/geom"
	"primopt/internal/obs"
	"primopt/internal/optimize"
	"primopt/internal/pdk"
	"primopt/internal/place"
	"primopt/internal/portopt"
	"primopt/internal/primlib"
	"primopt/internal/route"
	"primopt/internal/spice"
	"primopt/internal/verify"
)

// Mode selects the methodology to run.
type Mode int

// The four comparison columns of Tables VI and VII.
const (
	Schematic Mode = iota
	Conventional
	Optimized
	Manual
)

var modeNames = [...]string{"schematic", "conventional", "optimized", "manual"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Optimizing reports whether the mode runs Algorithm 1 per primitive
// (Optimized and Manual), the modes that evaluate primitives through
// Params.Optimize.Cache; the others use it only for their circuit
// evaluation (evaluate).
func (m Mode) Optimizing() bool { return m == Optimized || m == Manual }

// VerifyMode selects what the flow does with the static verification
// pass that runs after placement and routing.
type VerifyMode int

// Verification dispositions: skip entirely, compute and record the
// report, or fail the run on any violation.
const (
	VerifyOff VerifyMode = iota
	VerifyWarn
	VerifyFail
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyOff:
		return "off"
	case VerifyWarn:
		return "warn"
	case VerifyFail:
		return "fail"
	}
	return fmt.Sprintf("VerifyMode(%d)", int(m))
}

// VerifyParams configures the in-flow verification pass.
type VerifyParams struct {
	Mode    VerifyMode
	Options verify.Options
}

// Params tunes the flow. The placer, router and port optimizer take
// no other settings: the flow builds their inputs from these.
type Params struct {
	Seed     int64
	Optimize optimize.Params
	// PlaceReplicas is the number of independently seeded annealing
	// chains (0 = one, at most place.MaxReplicas). They run on a pool
	// bounded by Optimize.Workers, so one knob governs every pool.
	PlaceReplicas int
	// RetryAttempts bounds the optimize attempts per primitive
	// instance (0 = two, i.e. one retry). Attempts are separated by a
	// jittered exponential pause (fault.Backoff's defaults: 1–2 ms
	// before the first retry, doubling up to 1 s), a pure function of
	// (Seed, instance).
	RetryAttempts int
	Verify        VerifyParams
	// Trace, when set, is the run's trace: the run carries it on its
	// context, and every layer reports its spans and metrics there.
	// When nil the run reports to the trace its context already
	// carries (obs.From). Tracing is strictly passive — traced and
	// untraced runs produce byte-identical layouts.
	Trace *obs.Trace
	// StageTimeout, when positive, bounds each flow stage (schematic
	// OP, primitive optimization, placement, routing, evaluation) with
	// its own deadline derived from the run context.
	StageTimeout time.Duration
	// Fault, when set, arms this run's deterministic fault-injection
	// sites (tests and the -fault-spec flag install one). Nil is the
	// zero-cost disabled path.
	Fault *fault.Injector
}

// bind puts the run's fault injector and trace on ctx. A nil Trace
// becomes the trace ctx already carries, so afterwards p.Trace and
// ctx agree on where the run reports. A nil Optimize.Cache becomes a
// fresh memory-only cache for this run; a caller shares a cache, or
// backs it with the disk tier (evcache.Open), by setting it.
func (p *Params) bind(ctx context.Context) context.Context {
	ctx = fault.With(ctx, p.Fault)
	if p.Trace == nil {
		p.Trace = obs.From(ctx)
	}
	if p.Optimize.Cache == nil {
		p.Optimize.Cache = evcache.New()
	}
	return obs.With(ctx, p.Trace)
}

// stage derives the bounded context for one flow stage. The returned
// cancel must be called when the stage ends.
func (p Params) stage(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.StageTimeout > 0 {
		return context.WithTimeout(ctx, p.StageTimeout)
	}
	return context.WithCancel(ctx)
}

// startRun opens the run's flow.run span on p.Trace and records what
// the run was asked for: the circuit, the mode (the methodology, or
// what the entry point names) and every knob of p, as given (0 takes
// the default). The returned function ends the span, recording the
// SPICE runs and degradations on res, and sets res.Runtime.
func (p Params) startRun(bm *circuits.Benchmark, mode string, res *Result) (*obs.Span, func()) {
	start := time.Now() //lint:allow rngpurity wall time feeds Result.Runtime reporting metadata only, never layout or metric values
	root := p.Trace.Start("flow.run")
	root.SetAttr("circuit", bm.Name)
	root.SetAttr("mode", mode)
	root.SetAttr("seed", p.Seed)
	root.SetAttr("place_replicas", p.PlaceReplicas)
	root.SetAttr("spice_workers", p.Optimize.Workers)
	root.SetAttr("retry_attempts", p.RetryAttempts)
	root.SetAttr("verify", p.Verify.Mode.String())
	root.SetAttr("stage_timeout", p.StageTimeout.String())
	return root, func() {
		res.Runtime = time.Since(start) //lint:allow rngpurity wall time feeds Result.Runtime reporting metadata only, never layout or metric values
		root.SetAttr("sims", res.Sims)
		if len(res.Degraded) > 0 {
			root.SetAttr("degraded", len(res.Degraded))
		}
		root.End()
	}
}

// Result is one flow run.
type Result struct {
	Mode      Mode
	Benchmark string
	Metrics   map[string]float64
	Runtime   time.Duration
	Sims      int

	// Populated for layout modes.
	PrimResults map[string]*optimize.Result
	Placement   *place.Placement
	Routing     *route.Result
	NetWires    map[string]int
	Netlist     *circuit.Netlist // the assembled post-layout netlist
	// Verify holds the DRC/LVS report when verification ran
	// (Params.Verify.Mode != VerifyOff).
	Verify *verify.Report
	// Degraded maps a degraded element (an instance name, or "net:X"
	// for a routing casualty) to the reason it fell down the
	// graceful-degradation ladder. Empty on a fully healthy run.
	Degraded map[string]string
}

// degrade records one graceful degradation on the result and counts
// it on tr. Callers serialize access to the map.
func (res *Result) degrade(tr *obs.Trace, what, why string) {
	if res.Degraded == nil {
		res.Degraded = map[string]string{}
	}
	res.Degraded[what] = why
	tr.Counter("flow.degraded").Inc()
}

// chosen is the per-instance layout decision feeding assembly. In the
// optimizing modes ex is an optimize.Option's extraction, which may be
// the evaluation cache's shared stored entry: the flow only reads it.
// Conventional choices own their fresh layout and extraction.
type chosen struct {
	inst    *circuits.Inst
	entry   *primlib.Entry
	bias    primlib.Bias
	ex      *extract.Extracted
	metrics []cost.Metric
	routes  map[string]extract.Route
}

// RunContext executes one methodology on a benchmark. Cancellation
// reaches every solver inner loop (Newton, annealing bands, A*
// expansions), each stage optionally runs under its own
// Params.StageTimeout deadline, and Params.Fault (or an injector
// already on ctx) arms the deterministic fault sites.
func RunContext(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, mode Mode, p Params) (*Result, error) {
	ctx = p.bind(ctx)
	res := &Result{Mode: mode, Benchmark: bm.Name}
	root, end := p.startRun(bm, mode.String(), res)
	defer end()
	// Every cache key of the run carries the PDK's fingerprint, which
	// cannot change during the run: render it once.
	pdkFP := t.Fingerprint()

	if mode == Schematic {
		vals, err := evaluate(ctx, p, root, t, pdkFP, bm, bm.Schematic)
		if err != nil {
			return nil, fmt.Errorf("flow: %s schematic eval: %w", bm.Name, err)
		}
		res.Metrics = vals
		return res, nil
	}

	choices, err := runLayout(ctx, t, pdkFP, bm, mode, p, res, root)
	if err != nil {
		return nil, err
	}

	// Assemble and evaluate the post-layout netlist.
	asm := root.Start("flow.assemble")
	nl, err := Assemble(t, bm, choices)
	asm.End()
	if err != nil {
		return nil, err
	}
	res.Netlist = nl
	vals, err := evaluate(ctx, p, root, t, pdkFP, bm, nl)
	if err != nil {
		return nil, fmt.Errorf("flow: %s post-layout eval (%v): %w", bm.Name, mode, err)
	}
	res.Metrics = vals
	return res, nil
}

// evaluate runs the benchmark's evaluation of nl as the flow.eval
// stage, through the run's evaluation cache under
// evcache.NetlistKey: a netlist that the cache (disk tier included)
// has evaluated before is not simulated again. The span records
// cached, true when this run simulated nothing, and rides on the
// context, so the evaluation's own spans (the RO-VCO's eval.point per
// control voltage) nest under it. The metrics are a copy of the
// shared stored entry's. pdkFP is t.Fingerprint(), once per run.
func evaluate(ctx context.Context, p Params, root *obs.Span, t *pdk.Tech, pdkFP string, bm *circuits.Benchmark, nl *circuit.Netlist) (map[string]float64, error) {
	sp := root.Start("flow.eval")
	defer sp.End()
	ectx, cancel := p.stage(ctx)
	defer cancel()
	ectx = obs.WithSpan(ectx, sp)
	simulated := false
	ent, err := p.Optimize.Cache.DoCtx(ectx, evcache.NetlistKey(pdkFP, bm.Name, nl), func() (*evcache.Entry, error) {
		simulated = true
		vals, err := bm.Eval(ectx, t, nl)
		if err != nil {
			return nil, err
		}
		return &evcache.Entry{Eval: &primlib.Eval{Values: vals}}, nil
	})
	if err != nil {
		return nil, err
	}
	sp.SetAttr("cached", !simulated)
	return maps.Clone(ent.Eval.Values), nil
}

// runLayout executes the layout portion of one methodology —
// primitive selection, placement, global routing, port optimization,
// and static verification — filling res as it goes and returning the
// per-instance choices that feed assembly. Golden verification tests
// call this directly to check geometry without paying for post-layout
// simulation. pdkFP is t.Fingerprint(), once per run.
func runLayout(ctx context.Context, t *pdk.Tech, pdkFP string, bm *circuits.Benchmark, mode Mode, p Params, res *Result, root *obs.Span) (map[string]*chosen, error) {
	op, err := schematicOP(ctx, t, bm, p, root)
	if err != nil {
		return nil, err
	}

	prsp := root.Start("flow.primitives")
	prsp.SetAttr("n_insts", len(bm.Insts))
	pctx, pcancel := p.stage(ctx)
	var choices map[string]*chosen
	switch mode {
	case Conventional:
		choices, err = conventionalChoices(pctx, t, bm, op, prsp)
	case Optimized, Manual:
		choices, err = optimizedChoices(pctx, t, pdkFP, bm, op, mode, p, res, prsp)
	default:
		pcancel()
		prsp.End()
		return nil, fmt.Errorf("flow: unknown mode %v", mode)
	}
	pcancel()
	prsp.End()
	if err != nil {
		return nil, err
	}

	// Placement over the chosen variants (Optimized keeps all bins as
	// variants so the placer can trade aspect ratios; Conventional
	// and Manual have one variant each), then global routing between
	// the placed primitives.
	pl, err := runPlacement(ctx, bm, choices, res, p, root)
	if err != nil {
		return nil, err
	}
	if err := runRouting(ctx, t, bm, pl, choices, res, p, root); err != nil {
		return nil, err
	}

	// Port optimization (Algorithm 2) for the optimizing modes;
	// conventional keeps single routes.
	netWires := map[string]int{}
	if mode.Optimizing() {
		posp := root.Start("flow.portopt")
		pp := portopt.Params{Cache: p.Optimize.Cache}
		if mode == Manual {
			pp.MaxWires = 10
		}
		prims := make([]*portopt.PrimInstance, 0, len(choices))
		for _, name := range sortedKeys(choices) {
			ch := choices[name]
			if len(ch.routes) == 0 {
				continue
			}
			metrics, err := primMetrics(ctx, t, pdkFP, ch, p)
			if err != nil {
				posp.End()
				return nil, err
			}
			netOf := map[string]string{}
			for w := range ch.routes {
				netOf[w] = circuit.NormalizeNet(ch.inst.TermNets[w])
			}
			prims = append(prims, &portopt.PrimInstance{
				Name: name, Entry: ch.entry, Sizing: ch.inst.Sizing, Bias: ch.bias,
				Ex: ch.ex, Metrics: metrics, Routes: ch.routes, NetOf: netOf,
				SymGroups: ch.entry.SymPorts,
			})
		}
		pres, err := portopt.Optimize(obs.WithSpan(ctx, posp), t, pdkFP, prims, pp)
		if err != nil {
			posp.End()
			return nil, fmt.Errorf("flow: %s port optimization: %w", bm.Name, err)
		}
		res.Sims += pres.Sims
		netWires = pres.Wires
		// Symmetric port groups must end with matched routes: lift
		// each group's nets to the group's maximum count.
		for _, ch := range choices {
			for _, group := range ch.entry.SymPorts {
				maxN := 0
				for _, w := range group {
					if n, ok := netWires[circuit.NormalizeNet(ch.inst.TermNets[w])]; ok && n > maxN {
						maxN = n
					}
				}
				if maxN == 0 {
					continue
				}
				for _, w := range group {
					if net := circuit.NormalizeNet(ch.inst.TermNets[w]); net != "" {
						if _, ok := netWires[net]; ok {
							netWires[net] = maxN
						}
					}
				}
			}
		}
		// Apply the reconciled counts to the route geometry.
		for _, ch := range choices {
			for w, rt := range ch.routes {
				if n, ok := netWires[circuit.NormalizeNet(ch.inst.TermNets[w])]; ok {
					rt.NWires = n
					ch.routes[w] = rt
				}
			}
		}
		posp.End()
	} else {
		for _, net := range bm.RoutedNets {
			netWires[circuit.NormalizeNet(net)] = 1
		}
	}
	res.NetWires = netWires

	if err := runVerification(t, bm, choices, res, p, root); err != nil {
		return nil, err
	}
	return choices, nil
}

// runVerification runs the per-primitive and top-level DRC/LVS checks
// over the chosen layouts and the routed assembly. VerifyWarn records
// the report on the result; VerifyFail additionally aborts the run on
// any violation.
func runVerification(t *pdk.Tech, bm *circuits.Benchmark, choices map[string]*chosen, res *Result, p Params, root *obs.Span) error {
	if p.Verify.Mode == VerifyOff {
		return nil
	}
	sp := root.Start("flow.verify")
	defer sp.End()
	rep := &verify.Report{Target: bm.Name}
	layouts := map[string]*cellgen.Layout{}
	for _, name := range sortedKeys(choices) {
		ch := choices[name]
		layouts[name] = ch.ex.Layout
		rep.Merge(verify.CheckCell(t, name, ch.ex.Layout, p.Verify.Options))
	}
	rep.Merge(verify.CheckTop(t, verify.TopInput{
		Bench:     bm,
		Placement: res.Placement,
		Routing:   res.Routing,
		Layouts:   layouts,
		Region:    routeRegion(res.Placement),
	}, p.Verify.Options))
	rep.Merge(verify.CheckRouteStatus(res.Routing))
	res.Verify = rep
	if p.Verify.Mode == VerifyFail && !rep.Clean() {
		return fmt.Errorf("flow: %s: %s", bm.Name, rep.Summary())
	}
	return nil
}

// VerifyContext runs the layout portion of one methodology — through
// placement, routing, and port optimization — and returns the static
// verification report without assembling or simulating the result.
// The report is returned (when available) even when the run errors,
// so callers can print what was found before a VerifyFail abort. The
// context binds the run as in RunContext.
func VerifyContext(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, mode Mode, p Params) (*verify.Report, error) {
	if mode == Schematic {
		return nil, fmt.Errorf("flow: schematic mode has no layout to verify")
	}
	if p.Verify.Mode == VerifyOff {
		p.Verify.Mode = VerifyWarn
	}
	ctx = p.bind(ctx)
	res := &Result{Mode: mode, Benchmark: bm.Name}
	root, end := p.startRun(bm, mode.String(), res)
	defer end()
	root.SetAttr("verify_only", true)
	if _, err := runLayout(ctx, t, t.Fingerprint(), bm, mode, p, res, root); err != nil {
		return res.Verify, err
	}
	return res.Verify, nil
}

// conventionalChoices picks the most compact legal configuration per
// primitive — geometric constraints only, no performance awareness.
func conventionalChoices(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, op *spice.OPResult, sp *obs.Span) (map[string]*chosen, error) {
	out := map[string]*chosen{}
	for _, in := range bm.Insts {
		ps := sp.Start("flow.prim")
		ps.SetAttr("inst", in.Name)
		ps.SetAttr("kind", in.Kind)
		ch, configs, err := conventionalChoice(ctx, t, in, op)
		if err != nil {
			ps.End()
			return nil, err
		}
		ps.SetAttr("configs", configs)
		ps.End()
		out[in.Name] = ch
	}
	return out, nil
}

// conventionalChoice builds one instance's geometric-only candidate:
// the most compact legal configuration, extracted. It is both the
// Conventional mode's selection and the graceful-degradation fallback
// when Algorithm 1 fails for an instance.
func conventionalChoice(ctx context.Context, t *pdk.Tech, in *circuits.Inst, op *spice.OPResult) (*chosen, int, error) {
	entry, err := primlib.Lookup(ctx, in.Kind)
	if err != nil {
		return nil, 0, err
	}
	lays, err := entry.FindLayouts(ctx, t, in.Sizing, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("flow: conventional %s: %w", in.Name, err)
	}
	best, err := mostCompact(lays)
	if err != nil {
		return nil, 0, fmt.Errorf("flow: conventional %s (%s, %d fins): %w",
			in.Name, in.Kind, in.Sizing.TotalFins, err)
	}
	ex, err := extract.Primitive(ctx, t, best)
	if err != nil {
		return nil, 0, err
	}
	return &chosen{inst: in, entry: entry, bias: in.Bias(op), ex: ex}, len(lays), nil
}

// mostCompact returns the smallest-area layout of a configuration
// set, or a descriptive error when the generator yielded none (a
// sizing the geometric constraints cannot realize).
func mostCompact(lays []*cellgen.Layout) (*cellgen.Layout, error) {
	if len(lays) == 0 {
		return nil, fmt.Errorf("no legal layout configurations")
	}
	best := lays[0]
	for _, l := range lays[1:] {
		if l.BBox.Area() < best.BBox.Area() {
			best = l
		}
	}
	return best, nil
}

// optimizedChoices runs Algorithm 1 per primitive (concurrently) and
// takes each primitive's best tuned option; Manual widens the search.
//
// Per instance, failure walks a graceful-degradation ladder: the
// optimization is retried once (transient faults clear), then the
// instance falls back to its conventional (geometric-only) candidate
// and is marked Degraded on the result — the flow survives with a
// valid, if less optimal, layout. Cancellation is never retried or
// degraded away, and a worker panic becomes that instance's error.
func optimizedChoices(ctx context.Context, t *pdk.Tech, pdkFP string, bm *circuits.Benchmark, op *spice.OPResult,
	mode Mode, p Params, res *Result, sp *obs.Span) (map[string]*chosen, error) {
	res.PrimResults = map[string]*optimize.Result{}
	out := map[string]*chosen{}
	tr := p.Trace
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(bm.Insts))
	for i, in := range bm.Insts {
		wg.Add(1)
		go func(i int, in *circuits.Inst) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					tr.Counter("flow.prim_panics").Inc()
					errs[i] = fmt.Errorf("flow: optimizing %s: recovered panic: %v", in.Name, rec)
				}
			}()
			ps := sp.Start("flow.prim")
			defer ps.End()
			ps.SetAttr("inst", in.Name)
			ps.SetAttr("kind", in.Kind)
			entry, err := primlib.Lookup(ctx, in.Kind)
			if err != nil {
				errs[i] = err
				return
			}
			op1 := p.Optimize
			if mode == Manual {
				// The oracle: more bins, deeper tuning sweeps.
				if op1.Bins == 0 {
					op1.Bins = 5
				}
				if op1.MaxWires == 0 {
					op1.MaxWires = 10
				}
			}
			attempt := func() (r *optimize.Result, err error) {
				defer func() {
					if rec := recover(); rec != nil {
						err = fmt.Errorf("recovered panic: %v", rec)
					}
				}()
				return optimize.OptimizeCtx(obs.WithSpan(ctx, ps), t, pdkFP, entry, in.Sizing, in.Bias(op), op1)
			}
			// Rung 1: retry under the jittered backoff schedule — an
			// injected or transient fault at a specific hit count
			// clears on a later pass, and the deterministic pause
			// (seeded per instance) gives a transiently overloaded
			// resource room to recover instead of hammering it.
			bo := fault.Backoff{Attempts: p.RetryAttempts, Seed: p.Seed, Tag: "flow.retry." + in.Name}
			r, err := attempt()
			for tries := 1; err != nil && ctx.Err() == nil; tries++ {
				delay, ok := bo.Next(tries)
				if !ok {
					break
				}
				tr.Counter("flow.retries").Inc()
				ps.SetAttr("retried", true)
				if fault.Sleep(ctx, delay) != nil {
					break
				}
				r, err = attempt()
			}
			if err == nil {
				if best := r.Best(); best != nil {
					mu.Lock()
					res.PrimResults[in.Name] = r
					res.Sims += r.TotalSims()
					out[in.Name] = &chosen{inst: in, entry: entry, bias: r.Bias, ex: best.Ex, metrics: r.Metrics}
					mu.Unlock()
					return
				}
				err = fmt.Errorf("produced no options")
			}
			if ctx.Err() != nil {
				// Deadline/cancellation is terminal, not degradable.
				errs[i] = fmt.Errorf("flow: optimizing %s: %w", in.Name, err)
				return
			}
			// Rung 2: fall back to the conventional candidate.
			ch, _, ferr := conventionalChoice(ctx, t, in, op)
			if ferr != nil {
				errs[i] = fmt.Errorf("flow: optimizing %s: %w (conventional fallback also failed: %v)", in.Name, err, ferr)
				return
			}
			ps.SetAttr("degraded", true)
			mu.Lock()
			res.degrade(tr, in.Name, "optimize failed, conventional fallback: "+err.Error())
			out[in.Name] = ch
			mu.Unlock()
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// primMetrics returns the cost metrics for a chosen primitive,
// reusing the Algorithm 1 result when available, else the optimizer's
// schematic-reference leaf, so a warm cache satisfies it without
// SPICE. pdkFP is t.Fingerprint(), once per run.
func primMetrics(ctx context.Context, t *pdk.Tech, pdkFP string, ch *chosen, p Params) ([]cost.Metric, error) {
	if ch.metrics != nil {
		return ch.metrics, nil
	}
	_, m, err := optimize.Reference(ctx, t, pdkFP, ch.entry, ch.inst.Sizing, ch.bias, p.Optimize.Cache)
	if err != nil {
		return nil, err
	}
	ch.metrics = m
	return m, nil
}

// schematicOP solves the benchmark's schematic operating point as the
// flow.schematic_op stage.
func schematicOP(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, p Params, root *obs.Span) (*spice.OPResult, error) {
	sp := root.Start("flow.schematic_op")
	octx, cancel := p.stage(ctx)
	op, err := bm.SchematicOPCtx(octx, t)
	cancel()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("flow: %s schematic OP: %w", bm.Name, err)
	}
	return op, nil
}

// runPlacement places the chosen primitives as the flow.place stage.
func runPlacement(ctx context.Context, bm *circuits.Benchmark, choices map[string]*chosen, res *Result, p Params, root *obs.Span) (*place.Placement, error) {
	sp := root.Start("flow.place")
	defer sp.End()
	ctx, cancel := p.stage(ctx)
	defer cancel()
	blocks, nets, sym := placeInputs(bm, choices, res)
	// The SPICE worker bound also bounds the replica pool, so one flag
	// governs every pool.
	pp := place.Params{Seed: p.Seed, Replicas: p.PlaceReplicas, Workers: p.Optimize.Workers}
	pl, err := place.PlaceCtx(obs.WithSpan(ctx, sp), blocks, nets, sym, pp)
	if err != nil {
		return nil, fmt.Errorf("flow: placement: %w", err)
	}
	// Re-extract any primitive whose placed variant differs from the
	// chosen one (the placer may pick another aspect-ratio bin).
	// Manual mode exposed a single variant, already the best.
	if res.Mode != Manual {
		for _, name := range sortedKeys(choices) {
			ch := choices[name]
			r, ok := res.PrimResults[name]
			if !ok {
				continue
			}
			vi := pl.Variant[name]
			if vi >= 0 && vi < len(r.Selected) {
				ch.ex = r.Selected[vi].Ex
			}
		}
	}
	res.Placement = pl
	return pl, nil
}

// placeInputs builds the placer's blocks, nets and symmetry pairs from
// the chosen primitives. Variants for the optimizing modes come from
// each primitive's selected options.
func placeInputs(bm *circuits.Benchmark, choices map[string]*chosen, res *Result) ([]place.Block, []place.Net, []place.SymPair) {
	var blocks []place.Block
	for _, name := range sortedKeys(choices) {
		ch := choices[name]
		variants := []place.Variant{{
			W: ch.ex.Layout.BBox.W(), H: ch.ex.Layout.BBox.H(),
			Tag: ch.ex.Layout.Config.ID(),
		}}
		if r, ok := res.PrimResults[name]; ok {
			if res.Mode == Manual {
				// The oracle commits to its best option; the placer
				// must not trade it away for area.
				best := r.Best()
				variants = []place.Variant{{
					W: best.Layout.BBox.W(), H: best.Layout.BBox.H(),
					Tag: best.Layout.Config.ID(),
				}}
			} else {
				variants = variants[:0]
				for _, opt := range r.Selected {
					variants = append(variants, place.Variant{
						W: opt.Layout.BBox.W(), H: opt.Layout.BBox.H(),
						Tag: opt.Layout.Config.ID(),
					})
				}
			}
		}
		blocks = append(blocks, place.Block{Name: name, Variants: variants})
	}
	var nets []place.Net
	for _, netName := range bm.RoutedNets {
		n := place.Net{Name: netName}
		for _, name := range sortedKeys(choices) {
			ch := choices[name]
			for _, target := range ch.inst.TermNets {
				if circuit.NormalizeNet(target) == circuit.NormalizeNet(netName) {
					n.Blocks = append(n.Blocks, name)
					break
				}
			}
		}
		if len(n.Blocks) >= 2 {
			nets = append(nets, n)
		}
	}
	var sym []place.SymPair
	for _, name := range sortedKeys(choices) {
		if sw := choices[name].inst.SymWith; sw != "" {
			sym = append(sym, place.SymPair{A: sw, B: name})
		}
	}
	return blocks, nets, sym
}

// routeRegion is the routing window around a placement — shared by
// the router invocation and the verifier's re-materialization so both
// see identical gcell coordinates.
func routeRegion(pl *place.Placement) geom.Rect {
	return pl.BBox.Expand(pl.BBox.W()/10 + 200)
}

// runRouting routes the benchmark's signal nets over the placement as
// the flow.route stage and attaches the routes to the choices. A net
// that fails to route degrades the run instead of killing it; the
// verification pass (warn lists, fail rejects) holds the gate.
func runRouting(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, pl *place.Placement, choices map[string]*chosen, res *Result, p Params, root *obs.Span) error {
	sp := root.Start("flow.route")
	rctx, cancel := p.stage(ctx)
	region := routeRegion(pl)
	var reqs []route.NetReq
	for _, netName := range bm.RoutedNets {
		nn := circuit.NormalizeNet(netName)
		req := route.NetReq{Name: nn}
		for _, in := range bm.Insts {
			r, ok := pl.Pos[in.Name]
			if !ok {
				continue
			}
			touches := false
			for _, target := range in.TermNets {
				if circuit.NormalizeNet(target) == nn {
					touches = true
					break
				}
			}
			if touches {
				req.Pins = append(req.Pins, route.Pin{Block: in.Name, At: r.Center()})
			}
		}
		if len(req.Pins) >= 2 {
			reqs = append(reqs, req)
		}
	}
	routing, err := route.RouteCtx(obs.WithSpan(rctx, sp), t, region, reqs)
	cancel()
	if err == nil {
		sp.SetAttr("nets", len(routing.Nets))
		sp.SetAttr("overflow_edges", routing.OverflowEdges)
	}
	sp.End()
	if err != nil {
		return err
	}
	res.Routing = routing
	for _, n := range routing.Failed {
		why := "net failed to route"
		if nr := routing.Nets[n]; nr != nil && nr.Err != "" {
			why = nr.Err
		}
		res.degrade(p.Trace, "net:"+n, why)
	}
	attachRoutes(bm, choices, routing)
	return nil
}

// attachRoutes converts per-net routing geometry into per-instance
// port routes (each pin carries its share of the net's length and
// vias).
func attachRoutes(bm *circuits.Benchmark, choices map[string]*chosen, routing *route.Result) {
	for _, name := range sortedKeys(choices) {
		ch := choices[name]
		ch.routes = map[string]extract.Route{}
		for w, target := range ch.inst.TermNets {
			nn := circuit.NormalizeNet(target)
			nr, ok := routing.Nets[nn]
			if !ok || nr.TotalLength() == 0 {
				continue
			}
			if _, isWire := ch.ex.Term[w]; !isWire {
				continue
			}
			pins := pinCount(bm, nn)
			if pins < 1 {
				pins = 1
			}
			ch.routes[w] = extract.Route{
				Layer:    nr.DominantLayer(),
				Length:   nr.TotalLength() / int64(pins),
				NWires:   1,
				PinLayer: 0,
				Vias:     nr.Vias/pins + 2,
			}
		}
	}
}

func pinCount(bm *circuits.Benchmark, net string) int {
	count := 0
	for _, in := range bm.Insts {
		for _, target := range in.TermNets {
			if circuit.NormalizeNet(target) == net {
				count++
				break
			}
		}
	}
	return count
}

func sortedKeys(m map[string]*chosen) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunFixedWiresContext runs the geometric (conventional) flow but
// with every within-primitive wire and every global route forced to n
// parallel wires — the "narrow" (n=1) and "wide" (large n) corners of
// the paper's Fig. 2 trade-off. The context binds the run as in
// RunContext.
func RunFixedWiresContext(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, n int, p Params) (*Result, error) {
	ctx = p.bind(ctx)
	res := &Result{Mode: Conventional, Benchmark: bm.Name}
	if n < 1 {
		n = 1
	}
	root, end := p.startRun(bm, "fixed_wires", res)
	defer end()
	root.SetAttr("n_wires", n)

	op, err := schematicOP(ctx, t, bm, p, root)
	if err != nil {
		return nil, err
	}
	choices, err := fixedWireChoices(ctx, t, bm, op, n, p, root)
	if err != nil {
		return nil, err
	}
	pl, err := runPlacement(ctx, bm, choices, res, p, root)
	if err != nil {
		return nil, err
	}
	if err := runRouting(ctx, t, bm, pl, choices, res, p, root); err != nil {
		return nil, err
	}
	res.NetWires = map[string]int{}
	for _, ch := range choices {
		for w, rt := range ch.routes {
			rt.NWires = n
			ch.routes[w] = rt
			res.NetWires[circuit.NormalizeNet(ch.inst.TermNets[w])] = n
		}
	}
	asm := root.Start("flow.assemble")
	nl, err := Assemble(t, bm, choices)
	asm.End()
	if err != nil {
		return nil, err
	}
	res.Netlist = nl
	vals, err := evaluate(ctx, p, root, t, t.Fingerprint(), bm, nl)
	if err != nil {
		return nil, fmt.Errorf("flow: %s fixed-wires eval: %w", bm.Name, err)
	}
	res.Metrics = vals
	return res, nil
}

// fixedWireChoices picks the conventional primitives as the
// flow.primitives stage and forces every within-primitive wire to n
// parallel wires, re-extracting each. Conventional choices are fresh
// FindLayouts layouts, never cache entries, so writing their wires in
// place is safe.
func fixedWireChoices(ctx context.Context, t *pdk.Tech, bm *circuits.Benchmark, op *spice.OPResult, n int, p Params, root *obs.Span) (map[string]*chosen, error) {
	sp := root.Start("flow.primitives")
	defer sp.End()
	sp.SetAttr("n_insts", len(bm.Insts))
	ctx, cancel := p.stage(ctx)
	defer cancel()
	choices, err := conventionalChoices(ctx, t, bm, op, sp)
	if err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(choices) {
		ch := choices[name]
		for _, w := range ch.ex.Layout.Wires {
			w.NWires = n
		}
		ex, err := extract.Primitive(ctx, t, ch.ex.Layout)
		if err != nil {
			return nil, err
		}
		ch.ex = ex
	}
	return choices, nil
}
