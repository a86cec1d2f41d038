package circuits

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"primopt/internal/circuit"
	"primopt/internal/measure"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/spice"
)

// ROVCO builds the paper's third benchmark: an N-stage differential
// ring-oscillator VCO whose stages are current-starved inverters (the
// primitive optimized in Table VII) cross-coupled by weak latch
// inverters for differential locking. The control voltage drives the
// NMOS starving gates directly and the PMOS starving gates mirrored
// (vdd - vctrl), setting the stage current and thus the frequency.
//
// The returned benchmark's Eval sweeps nothing; it measures the
// oscillation frequency at a fixed control voltage (VCO curves are
// produced by EvalVCOAtCtx across control points).
func ROVCO(t *pdk.Tech, stages int) (*Benchmark, error) {
	if stages < 2 || stages%2 != 0 {
		return nil, fmt.Errorf("rovco: stages must be even and >= 2, got %d", stages)
	}
	const (
		vdd     = 0.8
		invFins = 16
		latFins = 2
		// Stage-output load: the schematic-level estimate of fanout
		// plus interconnect the designer budgets per ring node.
		cstage = 6e-15
	)
	b := circuit.NewBuilder("rovco")
	b.V("vdd", "vdd", "0", vdd)
	b.V("vcn", "vctl", "0", vdd) // overwritten by eval
	b.V("vcp", "vctlp", "0", 0)

	net := func(kind string, i int) string { return fmt.Sprintf("%s%d", kind, i) }
	var insts []*Inst
	for i := 0; i < stages; i++ {
		inP, inN := net("p", i), net("n", i)
		outP, outN := net("p", i+1), net("n", i+1)
		if i == stages-1 {
			// Wrap around with a twist: net inversion count becomes
			// odd, so the even-stage differential ring oscillates.
			outP, outN = net("n", 0), net("p", 0)
		}
		// Positive-path current-starved inverter (in: inP, out: outN
		// is the inverting sense; keep rails separate per stage for
		// splicing).
		addCSInv(b, t, fmt.Sprintf("sp%d", i), inP, outN, invFins)
		addCSInv(b, t, fmt.Sprintf("sn%d", i), inN, outP, invFins)
		// Weak cross-coupled latch between the complementary outputs.
		addInv(b, t, fmt.Sprintf("lp%d", i), outP, outN, latFins)
		addInv(b, t, fmt.Sprintf("ln%d", i), outN, outP, latFins)
		// Stage load budget.
		b.C(fmt.Sprintf("clp%d", i), outP, "0", cstage)
		b.C(fmt.Sprintf("cln%d", i), outN, "0", cstage)

		insts = append(insts, &Inst{
			Name:   fmt.Sprintf("csinv%d", i),
			Kind:   "csinv",
			Sizing: primlib.Sizing{TotalFins: invFins, L: t.GateL},
			DevA:   []string{fmt.Sprintf("sp%d_min", i), fmt.Sprintf("sp%d_mip", i)},
			DevB:   []string{fmt.Sprintf("sp%d_msn", i), fmt.Sprintf("sp%d_msp", i)},
			TermNets: map[string]string{
				"d_a": outN, "g_a": inP, "g_b": "vctl",
			},
			StaticBias: primlib.Bias{Vdd: vdd, VCtrl: 0.6, CLoad: cstage},
		})
	}

	bm := &Benchmark{
		Name:        "rovco",
		Schematic:   b.Netlist(),
		Insts:       insts,
		RoutedNets:  ringNets(stages),
		MetricOrder: []string{"fmax", "fmin", "vlo", "vhi"},
		MetricUnit:  map[string]string{"fmax": "Hz", "fmin": "Hz", "vlo": "V", "vhi": "V"},
	}
	bm.Eval = func(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error) {
		return EvalVCOCurveCtx(ctx, t, nl, vcoCurve)
	}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	return bm, nil
}

// vcoCurve is the control-voltage sweep of the RO-VCO's tuning curve.
var vcoCurve = []float64{0.35, 0.40, 0.45, 0.50, 0.60, 0.80}

// VCOCurveVoltages returns the control voltages at which the RO-VCO
// benchmark's Eval measures its tuning curve (Table VII), in sweep
// order.
func VCOCurveVoltages() []float64 { return slices.Clone(vcoCurve) }

// addCSInv emits one current-starved inverter: starved NMOS and PMOS
// stacks. Device names are prefixed so the flow can splice parasitics.
func addCSInv(b *circuit.Builder, t *pdk.Tech, name, in, out string, fins int) {
	nfin, nf := 4, fins/4
	mid := func(s string) string { return name + "_" + s }
	b.MOS(name+"_mip", circuit.PMOS, out, in, mid("mp"), "vdd", nfin, nf, 1, t.GateL)
	b.MOS(name+"_msp", circuit.PMOS, mid("mp"), "vctlp", "vdd", "vdd", nfin, nf, 1, t.GateL)
	b.MOS(name+"_min", circuit.NMOS, out, in, mid("mn"), "0", nfin, nf, 1, t.GateL)
	b.MOS(name+"_msn", circuit.NMOS, mid("mn"), "vctl", "0", "0", nfin, nf, 1, t.GateL)
}

// addInv emits a plain weak inverter (the latch element).
func addInv(b *circuit.Builder, t *pdk.Tech, name, in, out string, fins int) {
	b.MOS(name+"_mp", circuit.PMOS, out, in, "vdd", "vdd", fins, 1, 1, t.GateL)
	b.MOS(name+"_mn", circuit.NMOS, out, in, "0", "0", fins, 1, 1, t.GateL)
}

func ringNets(stages int) []string {
	var nets []string
	for i := 0; i < stages; i++ {
		nets = append(nets, fmt.Sprintf("p%d", i), fmt.Sprintf("n%d", i))
	}
	return append(nets, "vctl")
}

// EvalVCOAtCtx measures the oscillation frequency of the (schematic
// or post-layout) VCO netlist at one control voltage; ok=false when
// the ring does not oscillate there. On a traced context it records
// an eval.point span, under the span the context carries, with the
// control voltage, the outcome, and each transient window it ran
// (windows_s) with that window's time step (steps_s).
func EvalVCOAtCtx(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist, vctrl float64) (hz float64, ok bool, err error) {
	sp := obs.StartSpan(obs.From(ctx), obs.SpanFrom(ctx), "eval.point")
	var windows, steps []float64
	defer func() {
		if sp != nil {
			sp.SetAttr("vctrl", vctrl)
			sp.SetAttr("ok", ok)
			sp.SetAttr("hz", hz)
			sp.SetAttr("windows_s", windows)
			sp.SetAttr("steps_s", steps)
		}
		sp.End()
	}()
	sim := nl.Clone()
	vdd := 0.8
	if d := sim.Device("vdd"); d != nil {
		vdd = d.Param("dc", 0.8)
	}
	if d := sim.Device("vcn"); d != nil {
		d.SetParam("dc", vctrl)
	}
	if d := sim.Device("vcp"); d != nil {
		d.SetParam("dc", vdd-vctrl)
	}
	e, err := spice.New(ctx, t, sim)
	if err != nil {
		return 0, false, err
	}
	// Kick the ring out of its metastable symmetric point. Start with
	// a short window (fast oscillation at high vctrl resolves in a few
	// ns) and extend only if no crossings appear — slow starved rings
	// need tens of ns.
	run := func(tstep, tstop float64) (float64, bool, error) {
		windows = append(windows, tstop)
		steps = append(steps, tstep)
		res, err := e.Tran(tstep, tstop, spice.TranOpts{
			IC: map[string]float64{"p0": vdd, "n0": 0},
		})
		if err != nil {
			return 0, false, err
		}
		f, err := measure.OscFrequency(res, "p1", vdd/2, tstop/3)
		if err != nil {
			return 0, false, nil
		}
		// Require a real rail-to-railish swing to call it oscillation.
		if pp := measure.PeakToPeak(res, "p1", tstop/3); pp < vdd/2 {
			return 0, false, nil
		}
		return f, true, nil
	}
	for _, tstop := range []float64{4e-9, 24e-9} {
		tstep := tstop / 1500
		f, ok, err := run(tstep, tstop)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			continue // try the longer window
		}
		// A believable reading needs >= 12 samples per period;
		// otherwise it is integration ringing near Nyquist — re-run
		// with a step matched to the apparent frequency.
		for refine := 0; refine < 3 && f > 1/(12*tstep); refine++ {
			tstep = 1 / (40 * f)
			win := 30 / f
			f, ok, err = run(tstep, win)
			if err != nil {
				return 0, false, err
			}
			if !ok {
				break
			}
		}
		if ok {
			return f, true, nil
		}
	}
	return 0, false, nil
}

// vcoPoint is one control voltage's outcome in a curve sweep.
type vcoPoint struct {
	hz  float64
	ok  bool
	err error
	rec any // the value the point panicked with, nil if it did not
}

// EvalVCOCurveCtx sweeps control voltages and reports fmax, fmin,
// and the oscillating control range (Table VII's rows).
//
// The points are independent, so they run on
// min(len(vctrls), GOMAXPROCS) goroutines, and the fold runs in vctrl
// order, so the result is the serial sweep's bit for bit. Failures
// keep the serial semantics too: the sweep reports the error of the
// lowest-index failing point, the points after it are canceled, and
// the points before it run to completion (one of them may fail and
// take its place). A point that panics fails the same way, and the
// panic is raised again on the caller's goroutine, where a request's
// recover barrier can catch it.
func EvalVCOCurveCtx(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist, vctrls []float64) (map[string]float64, error) {
	pts := sweep(ctx, len(vctrls), func(ctx context.Context, i int) (float64, bool, error) {
		return EvalVCOAtCtx(ctx, t, nl, vctrls[i])
	})
	fmax, fmin := 0.0, 0.0
	vlo, vhi := 0.0, 0.0
	any := false
	for i, v := range vctrls {
		p := pts[i]
		if p.rec != nil {
			//lint:allow errflow re-raises a sweep point's panic on the caller's goroutine, as the serial sweep raised it
			panic(p.rec)
		}
		if p.err != nil {
			return nil, p.err
		}
		if !p.ok {
			continue
		}
		f := p.hz
		if !any {
			fmax, fmin, vlo, vhi = f, f, v, v
			any = true
			continue
		}
		if f > fmax {
			fmax = f
		}
		if f < fmin {
			fmin = f
		}
		if v < vlo {
			vlo = v
		}
		if v > vhi {
			vhi = v
		}
	}
	if !any {
		return nil, fmt.Errorf("rovco eval: no oscillation at any control voltage")
	}
	return map[string]float64{"fmax": fmax, "fmin": fmin, "vlo": vlo, "vhi": vhi}, nil
}

// sweep runs eval for points 0..n-1 on the bounded pool and returns
// the outcomes in index order. Points start in index order; each runs
// under its own context, which a failure at a lower index cancels, and
// a point whose context is already done when its turn comes records
// the context's error without running.
func sweep(ctx context.Context, n int, eval func(ctx context.Context, i int) (float64, bool, error)) []vcoPoint {
	pts := make([]vcoPoint, n)
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	var mu sync.Mutex
	firstFailed := n // lowest failing index so far
	fail := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		for j := i + 1; j < firstFailed; j++ {
			cancels[j]()
		}
		firstFailed = min(firstFailed, i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				p := &pts[i]
				if err := ctxs[i].Err(); err != nil {
					p.err = err
				} else {
					*p = runPoint(ctxs[i], i, eval)
				}
				if p.err != nil || p.rec != nil {
					fail(i)
				}
			}
		}()
	}
	wg.Wait()
	return pts
}

// runPoint runs one point, turning a panic into its outcome so that
// the panic cannot escape the pool goroutine.
func runPoint(ctx context.Context, i int, eval func(ctx context.Context, i int) (float64, bool, error)) (p vcoPoint) {
	defer func() {
		if r := recover(); r != nil {
			p = vcoPoint{rec: r}
		}
	}()
	p.hz, p.ok, p.err = eval(ctx, i)
	return p
}
