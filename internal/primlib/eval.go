package primlib

import (
	"context"
	"fmt"
	"math"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/lde"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/spice"
	"primopt/internal/units"
)

// Measurement frequencies: transconductances are read in the flat
// low-frequency region; node capacitances at a frequency where ωC
// dominates the device output conductance.
const (
	fGm  = 1e6
	fCap = 1e7
)

// capFromVrVi converts the complex node voltage under a 1 A AC
// current drive into the node capacitance: Y = 1/V, C = Im(Y)/ω =
// -Im(V)/(|V|²·ω). Using the imaginary part cancels the device
// output-conductance contribution that a magnitude-only reading would
// fold in. The measurement frequency is chosen so ωC dominates gds
// while ωRC of the wire network stays small.
func capFromVrVi(vr, vi float64) (float64, error) {
	den := (vr*vr + vi*vi) * 2 * math.Pi * fCap
	if den == 0 {
		return 0, fmt.Errorf("primlib: zero response in capacitance testbench")
	}
	c := -vi / den
	if c <= 0 {
		return 0, fmt.Errorf("primlib: non-capacitive response (C = %g)", c)
	}
	return c, nil
}

// canonicalConfig is the layout-free geometry used for schematic
// reference simulations: one full-width stripe.
func canonicalConfig(sz Sizing) cellgen.Config {
	return cellgen.Config{NFin: sz.TotalFins, NF: 1, M: 1, Pattern: cellgen.PatA}
}

// EvaluateCtx runs the entry's metric testbenches. ex == nil gives
// the schematic reference (no parasitics, no LDEs). routes, when
// present, adds external global-route RC beyond the named ports
// (keyed by the cellgen wire name) — the primitive port optimization
// view. The testbenches see only TestbenchBias(bias), so an
// evaluation is a function of exactly the fields the evaluation
// cache keys. The SPICE runs poll ctx for cancellation, honor its
// fault injector, and report to its trace.
func (e *Entry) EvaluateCtx(ctx context.Context, t *pdk.Tech, sz Sizing, bias Bias,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev, err := e.evaluate(runOn(ctx, t), t, sz, e.TestbenchBias(bias), ex, routes)
	if tr := obs.From(ctx); tr.Enabled() {
		if ex == nil {
			tr.Counter("primlib.schematic_evals").Inc()
		} else {
			tr.Counter("primlib.layout_evals").Inc()
		}
		if err != nil {
			tr.Counter("primlib.eval_failures").Inc()
		} else {
			tr.Counter("primlib.sims").Add(int64(ev.Sims))
		}
	}
	return ev, err
}

// solver solves one testbench deck. Evaluation solves on the run's
// context (runOn); the deck-equivalence test also records the decks.
type solver func(*spice.Deck) (*spice.Results, error)

// runOn returns the solver that runs decks with spice.Run on ctx.
func runOn(ctx context.Context, t *pdk.Tech) solver {
	return func(d *spice.Deck) (*spice.Results, error) { return spice.Run(ctx, t, d) }
}

// run solves b's deck, or returns the error that stopped its build.
func (s solver) run(b *tb) (*spice.Results, error) {
	if b.err != nil {
		return nil, b.err
	}
	return s(b.deck)
}

func (e *Entry) evaluate(s solver, t *pdk.Tech, sz Sizing, bias Bias,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	cfg := canonicalConfig(sz)
	if ex != nil {
		cfg = ex.Layout.Config
	}
	switch e.Family {
	case "diffpair":
		return evalDiffPair(s, e, t, sz, bias, cfg, ex, routes)
	case "diffpair_cascode":
		return evalDiffPairCascode(s, e, t, sz, bias, cfg, ex, routes)
	case "cmirror":
		return evalCMirror(s, e, t, sz, bias, cfg, ex, routes)
	case "csource":
		return evalCSource(s, e, t, sz, bias, cfg, ex, routes)
	case "csamp":
		return evalCSAmp(s, e, t, sz, bias, cfg, ex, routes)
	case "csinv":
		return evalCSInv(s, e, t, sz, bias, cfg, ex, routes)
	case "cap":
		if ex == nil {
			return capSchematicEval(sz), nil
		}
		return evalCap(s, e, t, sz, bias, ex, routes)
	case "res":
		if ex == nil {
			return resSchematicEval(t, sz), nil
		}
		return evalRes(s, e, t, sz, bias, ex, routes)
	default:
		return nil, fmt.Errorf("primlib: no evaluator for family %q", e.Family)
	}
}

// TestbenchBias projects bias onto the fields the entry's family
// testbenches read, zeroing the rest. Circuit-level biases carry more
// than a testbench uses: the RO-VCO's stages get their schematic-OP
// gate and drain voltages in VCM and VD, which the csinv testbenches
// never read and which differ across the symmetric ring only in the
// last bits. Keying and evaluating the projection lets such instances
// share one evaluation. The table is per family; a few entries keep a
// field they do not read (Vdd on NMOS pairs), and a family missing
// here keeps its full bias.
func (e *Entry) TestbenchBias(b Bias) Bias {
	switch e.Family {
	case "diffpair":
		return Bias{Vdd: b.Vdd, VCM: b.VCM, VD: b.VD, ITail: b.ITail, CLoad: b.CLoad}
	case "diffpair_cascode":
		return Bias{VCM: b.VCM, VD: b.VD, ITail: b.ITail, CLoad: b.CLoad, VCasc: b.VCasc}
	case "cmirror":
		// ITail is the reference current when Sizing.NominalI is 0.
		return Bias{Vdd: b.Vdd, VD: b.VD, ITail: b.ITail, CLoad: b.CLoad}
	case "csource":
		return Bias{Vdd: b.Vdd, VCM: b.VCM, VD: b.VD}
	case "csamp":
		return Bias{VCM: b.VCM, VD: b.VD, CLoad: b.CLoad}
	case "csinv":
		return Bias{Vdd: b.Vdd, VCtrl: b.VCtrl, CLoad: b.CLoad}
	case "cap", "res":
		return Bias{}
	default:
		return b
	}
}

// CostMetrics builds the cost metrics for this entry from a schematic
// reference evaluation. The offset spec is 10% of the random offset
// (paper Section III), everything else references the schematic
// value.
func (e *Entry) CostMetrics(t *pdk.Tech, sz Sizing, schematic *Eval) ([]cost.Metric, error) {
	out := make([]cost.Metric, 0, len(e.Metrics))
	for _, ms := range e.Metrics {
		m := cost.Metric{Name: ms.Name, Weight: ms.Weight}
		if ms.Name == "offset" {
			m.Schematic = 0
			m.Spec = 0.1 * lde.RandomOffsetSigma(t, sz.TotalFins)
		} else {
			v, ok := schematic.Values[ms.Name]
			if !ok {
				return nil, fmt.Errorf("primlib: schematic eval missing metric %q", ms.Name)
			}
			m.Schematic = v
		}
		out = append(out, m)
	}
	return out, nil
}

// Cost evaluates Eq. (5) for a layout evaluation against metrics.
func Cost(metrics []cost.Metric, ev *Eval) (float64, []cost.Value, error) {
	vals := make([]cost.Value, 0, len(metrics))
	for _, m := range metrics {
		v, ok := ev.Values[m.Name]
		if !ok {
			return 0, nil, fmt.Errorf("primlib: evaluation missing metric %q", m.Name)
		}
		vals = append(vals, cost.Evaluate(m, v))
	}
	return cost.Total(vals), vals, nil
}

// --- differential pair family ---

func evalDiffPair(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, cfg cellgen.Config,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	// PMOS pairs (cross-coupled latch loads) mirror to the supply
	// rail: bulk and tail at vdd, tail current drawn from the rail.
	isP := e.MOSType.String() == "PMOS"
	rail := "0"
	if isP {
		rail = "vdd"
	}
	header := func(b *tb) {
		if isP {
			b.vsrc("vdd", "vdd", "0", g6(bias.Vdd))
		}
		b.mos("a", e, sz, 0, cfg, b.dev("d_a"), b.dev("g_a"), b.dev("s_a"), rail)
		b.mos("b", e, sz, 1, cfg, b.dev("d_b"), b.dev("g_b"), b.dev("s_b"), rail)
		// Per-side source straps join at the common spine tap.
		b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
		b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
	}
	tail := func(b *tb) {
		if isP {
			b.isrc("ita", "vdd", b.outer("s"), g6(bias.ITail))
		} else {
			b.isrc("ita", b.outer("s"), "0", g6(bias.ITail))
		}
	}

	// Testbench 1: Gm (Fig. 4) — differential AC drive, drains held,
	// AC drain current read through the drain voltage source.
	b := newTB(t, "dp gm testbench", ex, routes)
	header(b)
	b.vsrc("vga", b.outer("g_a"), "0", g6(bias.VCM)).ac(0.5)
	b.vsrc("vgb", b.outer("g_b"), "0", g6(bias.VCM)).ac(0.5).phase(180)
	b.vsrc("vda", b.outer("d_a"), "0", g6(bias.VD))
	b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
	tail(b)
	b.acSweep(5, 1e5, 1e7)
	b.find("gmhalf", "i(vda)", fGm)
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("dp gm testbench: %w", err)
	}
	ev.Sims++
	gm := 2 * res.Measures["gmhalf"]
	ev.Values["Gm"] = gm

	// Testbench 2: Ctotal at the drain — AC current drive, DC bias
	// through an inductor, C = 1/(ω·|V|) in the capacitive region.
	b = newTB(t, "dp ctotal testbench", ex, routes)
	header(b)
	b.vsrc("vga", b.outer("g_a"), "0", g6(bias.VCM))
	b.vsrc("vgb", b.outer("g_b"), "0", g6(bias.VCM))
	b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
	tail(b)
	b.isrc("ix", "0", b.outer("d_a"), 0).ac(1)
	b.capBiasInductor("da", b.outer("d_a"), bias.VD)
	if bias.CLoad > 0 {
		b.capacitor("cext", b.outer("d_a"), "0", g6(bias.CLoad))
	}
	b.acSweep(5, 1e6, 1e8)
	b.find("vre", "vr("+b.outer("d_a")+")", fCap)
	b.find("vim", "vi("+b.outer("d_a")+")", fCap)
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("dp ctotal testbench: %w", err)
	}
	ev.Sims++
	ct, err := capFromVrVi(res.Measures["vre"], res.Measures["vim"])
	if err != nil {
		return nil, fmt.Errorf("dp ctotal testbench: %w", err)
	}
	ev.Values["Ctotal"] = ct
	if ct > 0 {
		ev.Values["Gm/Ctotal"] = gm / ct
	}

	// Testbenches 3, 4: input offset — the differential input that
	// zeroes the differential drain current, from two DC points.
	di := func(vdiff float64) (float64, error) {
		b := newTB(t, "dp offset testbench", ex, routes)
		header(b)
		b.vsrc("vga", b.outer("g_a"), "0", g9(bias.VCM+vdiff/2))
		b.vsrc("vgb", b.outer("g_b"), "0", g9(bias.VCM-vdiff/2))
		b.vsrc("vda", b.outer("d_a"), "0", g6(bias.VD))
		b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
		tail(b)
		b.op()
		res, err := s.run(b)
		if err != nil {
			return 0, fmt.Errorf("dp offset testbench: %w", err)
		}
		ev.Sims++
		ia, err1 := res.OP.Current("vda")
		ib, err2 := res.OP.Current("vdb")
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("dp offset testbench: currents missing")
		}
		return ia - ib, nil
	}
	const dv = 1e-3
	d1, err := di(+dv)
	if err != nil {
		return nil, err
	}
	d2, err := di(-dv)
	if err != nil {
		return nil, err
	}
	if d1 == d2 {
		ev.Values["offset"] = 0
	} else {
		// Linear zero crossing between the two points.
		ev.Values["offset"] = dv - d1*(2*dv)/(d1-d2)
	}
	return ev, nil
}

// --- current mirror family ---

func evalCMirror(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, cfg cellgen.Config,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	isP := e.MOSType.String() == "PMOS"
	rail := "0"
	if isP {
		rail = "vdd"
	}
	iref := sz.NominalI
	if iref <= 0 {
		iref = bias.ITail
	}
	if iref <= 0 {
		return nil, fmt.Errorf("cmirror: no reference current in sizing/bias")
	}
	ratio := float64(e.RatioB)
	if sz.RatioB > 0 {
		ratio = float64(sz.RatioB)
	}
	if ratio < 1 {
		ratio = 1
	}

	header := func(title string) *tb {
		b := newTB(t, title, ex, routes)
		if isP {
			b.vsrc("vdd", "vdd", "0", g6(bias.Vdd))
		}
		b.mos("a", e, sz, 0, cfg, b.dev("d_a"), b.dev("g_a"), b.dev("s_a"), rail)
		b.mos("b", e, sz, 1, cfg, b.dev("d_b"), b.dev("g_b"), b.dev("s_b"), rail)
		// Per-side source straps join the spine, which ties to the
		// rail; both gates tie to the input port through their wires.
		b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
		b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
		b.resistor("rtss", b.outer("s"), rail, 1e-3)
		b.resistor("rtga", b.outer("g_a"), b.outer("d_a"), 1e-3)
		b.resistor("rtgb", b.outer("g_b"), b.outer("d_a"), 1e-3)
		return b
	}

	// Testbench 1: current ratio at DC.
	b := header("cm ratio testbench")
	if isP {
		b.isrc("iref", b.outer("d_a"), "0", g6(iref)) // pulls current out of the diode
		b.vsrc("vout", b.outer("d_b"), "0", g6(bias.VD))
	} else {
		b.isrc("iref", "0", b.outer("d_a"), g6(iref)) // pushes current into the diode
		b.vsrc("vout", b.outer("d_b"), "0", g6(bias.VD))
	}
	b.op()
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("cm ratio testbench: %w", err)
	}
	ev.Sims++
	iout, err := res.OP.Current("vout")
	if err != nil {
		return nil, err
	}
	ev.Values["ratio"] = math.Abs(iout) / (iref * ratio)
	ev.Values["iout"] = math.Abs(iout)

	// Testbench 2: output capacitance.
	b = header("cm cout testbench")
	if isP {
		b.isrc("iref", b.outer("d_a"), "0", g6(iref))
	} else {
		b.isrc("iref", "0", b.outer("d_a"), g6(iref))
	}
	b.isrc("ix", "0", b.outer("d_b"), 0).ac(1)
	b.capBiasInductor("out", b.outer("d_b"), bias.VD)
	if bias.CLoad > 0 {
		b.capacitor("cext", b.outer("d_b"), "0", g6(bias.CLoad))
	}
	b.acSweep(5, 1e6, 1e8)
	b.find("vre", "vr("+b.outer("d_b")+")", fCap)
	b.find("vim", "vi("+b.outer("d_b")+")", fCap)
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("cm cout testbench: %w", err)
	}
	ev.Sims++
	co, err := capFromVrVi(res.Measures["vre"], res.Measures["vim"])
	if err != nil {
		return nil, fmt.Errorf("cm cout testbench: %w", err)
	}
	ev.Values["Cout"] = co
	return ev, nil
}

// --- current source / load family ---

func evalCSource(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, cfg cellgen.Config,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	isP := e.MOSType.String() == "PMOS"
	rail := "0"
	if isP {
		rail = "vdd"
	}
	mk := func(title string, vd float64) *tb {
		b := newTB(t, title, ex, routes)
		if isP {
			b.vsrc("vdd", "vdd", "0", g6(bias.Vdd))
		}
		b.mos("a", e, sz, 0, cfg, b.dev("d"), b.dev("g"), b.dev("s"), rail)
		b.resistor("rtss", b.outer("s"), rail, 1e-3)
		b.vsrc("vg", b.outer("g"), "0", g6(bias.VCM))
		b.vsrc("vd", b.outer("d"), "0", g9(vd))
		b.op()
		return b
	}
	ivAt := func(vd float64) (float64, error) {
		res, err := s.run(mk("cs current testbench", vd))
		if err != nil {
			return 0, fmt.Errorf("cs current testbench: %w", err)
		}
		ev.Sims++
		i, err := res.OP.Current("vd")
		if err != nil {
			return 0, err
		}
		return i, nil
	}
	i0, err := ivAt(bias.VD)
	if err != nil {
		return nil, err
	}
	ev.Values["current"] = math.Abs(i0)
	const dv = 0.025
	i1, err := ivAt(bias.VD + dv)
	if err != nil {
		return nil, err
	}
	i2, err := ivAt(bias.VD - dv)
	if err != nil {
		return nil, err
	}
	di := math.Abs(i1 - i2)
	if di <= 0 {
		return nil, fmt.Errorf("cs ro testbench: zero output conductance signal")
	}
	ev.Values["ro"] = 2 * dv / di
	return ev, nil
}

// --- common-source amplifier family ---

func evalCSAmp(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, cfg cellgen.Config,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}

	// Testbench 1: Gm — AC at the gate, drain held, current measured.
	b := newTB(t, "cs gm testbench", ex, routes)
	b.mos("a", e, sz, 0, cfg, b.dev("d"), b.dev("g"), b.dev("s"), "0")
	b.resistor("rtss", b.outer("s"), "0", 1e-3)
	b.vsrc("vg", b.outer("g"), "0", g6(bias.VCM)).ac(1)
	b.vsrc("vd", b.outer("d"), "0", g6(bias.VD))
	b.acSweep(5, 1e5, 1e7)
	b.find("gmv", "i(vd)", fGm)
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("cs gm testbench: %w", err)
	}
	ev.Sims++
	ev.Values["Gm"] = res.Measures["gmv"]

	// Testbenches 2, 3: output resistance from two DC points.
	ivAt := func(vd float64) (float64, error) {
		b := newTB(t, "cs ro testbench", ex, routes)
		b.mos("a", e, sz, 0, cfg, b.dev("d"), b.dev("g"), b.dev("s"), "0")
		b.resistor("rtss", b.outer("s"), "0", 1e-3)
		b.vsrc("vg", b.outer("g"), "0", g6(bias.VCM))
		b.vsrc("vd", b.outer("d"), "0", g9(vd))
		b.op()
		res, err := s.run(b)
		if err != nil {
			return 0, fmt.Errorf("cs ro testbench: %w", err)
		}
		ev.Sims++
		return res.OP.Current("vd")
	}
	const dv = 0.025
	i1, err := ivAt(bias.VD + dv)
	if err != nil {
		return nil, err
	}
	i2, err := ivAt(bias.VD - dv)
	if err != nil {
		return nil, err
	}
	di := math.Abs(i1 - i2)
	if di <= 0 {
		return nil, fmt.Errorf("cs ro testbench: no output conductance signal")
	}
	ev.Values["ro"] = 2 * dv / di

	// Cout for downstream consumers (not in the cost by default).
	b = newTB(t, "cs cout testbench", ex, routes)
	b.mos("a", e, sz, 0, cfg, b.dev("d"), b.dev("g"), b.dev("s"), "0")
	b.resistor("rtss", b.outer("s"), "0", 1e-3)
	b.vsrc("vg", b.outer("g"), "0", g6(bias.VCM))
	b.isrc("ix", "0", b.outer("d"), 0).ac(1)
	b.capBiasInductor("d", b.outer("d"), bias.VD)
	if bias.CLoad > 0 {
		b.capacitor("cext", b.outer("d"), "0", g6(bias.CLoad))
	}
	b.acSweep(5, 1e6, 1e8)
	b.find("vre", "vr("+b.outer("d")+")", fCap)
	b.find("vim", "vi("+b.outer("d")+")", fCap)
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("cs cout testbench: %w", err)
	}
	ev.Sims++
	if co, err := capFromVrVi(res.Measures["vre"], res.Measures["vim"]); err == nil {
		ev.Values["Cout"] = co
	}
	return ev, nil
}

// --- current-starved inverter family ---

// The delay testbench's PULSE delay (where its current average also
// starts), edge time and transient step, as its deck text spelled
// them. units.Parse scales the mantissa in float64, so 0.2n is
// 0.2 × 1e-9 = 2.0000000000000003e-10, not the constant 2e-10.
var (
	csinvDelay = units.MustParse("0.2n")
	csinvEdge  = units.MustParse("20p")
	csinvStep  = units.MustParse("5p")
)

func evalCSInv(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, cfg cellgen.Config,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	vdd := bias.Vdd
	vctrl := bias.VCtrl
	if vctrl <= 0 {
		vctrl = vdd / 2
	}

	// The cell holds the inverter device (A) and the starving device
	// (B) for each polarity; both polarities share the layout
	// configuration and wire geometry (stacked rows).
	header := func(title string, ex *extract.Extracted) *tb {
		b := newTB(t, title, ex, routes)
		b.vsrc("vdd", "vdd", "0", g6(vdd))
		// NMOS half: out — Min — midn — (mid wire R) — Msn — (source
		// wire R) — ground; PMOS half mirrored to vdd.
		var rmid, rsrc float64
		if ex != nil {
			rmid = ex.Term["d_b"].R
			rsrc = ex.Term["s_a"].R + ex.Term["s"].R
		}
		if rmid <= 0 {
			rmid = 1e-3
		}
		if rsrc <= 0 {
			rsrc = 1e-3
		}
		b.mosPolarity("in", circuit.NMOS, Sizing{TotalFins: sz.TotalFins, L: sz.L}, 0, cfg,
			b.dev("d_a"), b.dev("g_a"), "midn", "0")
		b.resistor("rmidn", "midn", "midn2", g6(rmid))
		b.mosPolarity("sn", circuit.NMOS, Sizing{TotalFins: sz.TotalFins, L: sz.L}, 1, cfg,
			"midn2", b.dev("g_b"), "srn", "0")
		b.resistor("rsrcn", "srn", "0", g6(rsrc))
		b.mosPolarity("ip", circuit.PMOS, Sizing{TotalFins: sz.TotalFins, L: sz.L}, 0, cfg,
			b.dev("d_a"), b.dev("g_a"), "midp", "vdd")
		b.resistor("rmidp", "midp", "midp2", g6(rmid))
		b.mosPolarity("sp", circuit.PMOS, Sizing{TotalFins: sz.TotalFins, L: sz.L}, 1, cfg,
			"midp2", "ctrlp", "srp", "vdd")
		b.resistor("rsrcp", "srp", "vdd", g6(rsrc))
		b.vsrc("vctln", b.outer("g_b"), "0", g6(vctrl))
		b.vsrc("vctlp", "ctrlp", "0", g6(vdd-vctrl))
		return b
	}

	// Testbench 1: transient — stage delay and supply current.
	per := 4e-9
	b := header("csinv delay testbench", ex)
	b.pulse("vin", b.outer("g_a"), "0", 0, g6(vdd), csinvDelay, csinvEdge, csinvEdge, g6(per/2), g6(per))
	if bias.CLoad > 0 {
		b.capacitor("cload", b.outer("d_a"), "0", g6(bias.CLoad))
	}
	b.tran(csinvStep, g6(per*1.5))
	mid := vdd / 2
	b.trigTarg("tdf", "v("+b.outer("g_a")+")", g6(mid), "rise", "v("+b.outer("d_a")+")", g6(mid), "fall")
	b.trigTarg("tdr", "v("+b.outer("g_a")+")", g6(mid), "fall", "v("+b.outer("d_a")+")", g6(mid), "rise")
	b.avg("iavg", "i(vdd)", csinvDelay, g6(0.2e-9+per))
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("csinv delay testbench: %w", err)
	}
	ev.Sims++
	ev.Values["delay"] = (res.Measures["tdf"] + res.Measures["tdr"]) / 2
	ev.Values["current"] = math.Abs(res.Measures["iavg"])

	// Testbench 2: small-signal gain near midscale.
	b = header("csinv gain testbench", ex)
	b.vsrc("vin", b.outer("g_a"), "0", g6(vdd/2)).ac(1)
	if bias.CLoad > 0 {
		b.capacitor("cload", b.outer("d_a"), "0", g6(bias.CLoad))
	}
	b.acSweep(5, 1e5, 1e7)
	b.find("av", "vm("+b.outer("d_a")+")", 1e6)
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("csinv gain testbench: %w", err)
	}
	ev.Sims++
	ev.Values["gain"] = res.Measures["av"]
	return ev, nil
}

// --- cascoded differential pair family ---

// evalDiffPairCascode measures the same Gm / Gm/Ctotal / offset
// metrics as the plain pair, on the stacked topology: the cell's
// device A is the input pair, device B the common-gate cascodes above
// it. The cascode isolates the input devices from the drain routes
// (higher Rout, smaller Miller), which is exactly what the metric
// comparison against the plain pair shows.
func evalDiffPairCascode(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, cfg cellgen.Config,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	vcasc := bias.VCasc
	if vcasc <= 0 {
		vcasc = bias.VCM + 0.15
	}

	// Shared topology: Ma/Mb input pair into Mca/Mcb cascodes. The
	// input-pair drains ride the internal d_b wire (the mid nodes);
	// the cascode drains own the external d_a ports. Source mesh as
	// in the plain pair.
	header := func(b *tb) {
		b.mos("a", e, sz, 0, cfg, "mid_a", b.dev("g_a"), b.dev("s_a"), "0")
		b.mos("b", e, sz, 0, cfg, "mid_b", b.dev("g_b"), b.dev("s_b"), "0")
		b.mosPolarity("ca", circuit.NMOS, sz, 1, cfg, b.dev("d_a"), "cascg", "mid_a", "0")
		b.mosPolarity("cb", circuit.NMOS, sz, 1, cfg, b.dev("d_b"), "cascg", "mid_b", "0")
		b.vsrc("vcasc", "cascg", "0", g6(vcasc))
		b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
		b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
	}

	// Testbench 1: Gm.
	b := newTB(t, "cascode dp gm testbench", ex, routes)
	header(b)
	b.vsrc("vga", b.outer("g_a"), "0", g6(bias.VCM)).ac(0.5)
	b.vsrc("vgb", b.outer("g_b"), "0", g6(bias.VCM)).ac(0.5).phase(180)
	b.vsrc("vda", b.outer("d_a"), "0", g6(bias.VD))
	b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
	b.isrc("ita", b.outer("s"), "0", g6(bias.ITail))
	b.acSweep(5, 1e5, 1e7)
	b.find("gmhalf", "i(vda)", fGm)
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("cascode dp gm testbench: %w", err)
	}
	ev.Sims++
	gm := 2 * res.Measures["gmhalf"]
	ev.Values["Gm"] = gm

	// Testbench 2: Ctotal at the cascode drain.
	b = newTB(t, "cascode dp ctotal testbench", ex, routes)
	header(b)
	b.vsrc("vga", b.outer("g_a"), "0", g6(bias.VCM))
	b.vsrc("vgb", b.outer("g_b"), "0", g6(bias.VCM))
	b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
	b.isrc("ita", b.outer("s"), "0", g6(bias.ITail))
	b.isrc("ix", "0", b.outer("d_a"), 0).ac(1)
	b.capBiasInductor("da", b.outer("d_a"), bias.VD)
	if bias.CLoad > 0 {
		b.capacitor("cext", b.outer("d_a"), "0", g6(bias.CLoad))
	}
	b.acSweep(5, 1e6, 1e8)
	b.find("vre", "vr("+b.outer("d_a")+")", fCap)
	b.find("vim", "vi("+b.outer("d_a")+")", fCap)
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("cascode dp ctotal testbench: %w", err)
	}
	ev.Sims++
	ct, err := capFromVrVi(res.Measures["vre"], res.Measures["vim"])
	if err != nil {
		return nil, fmt.Errorf("cascode dp ctotal testbench: %w", err)
	}
	ev.Values["Ctotal"] = ct
	if ct > 0 {
		ev.Values["Gm/Ctotal"] = gm / ct
	}

	// Testbenches 3, 4: offset.
	di := func(vdiff float64) (float64, error) {
		b := newTB(t, "cascode dp offset testbench", ex, routes)
		header(b)
		b.vsrc("vga", b.outer("g_a"), "0", g9(bias.VCM+vdiff/2))
		b.vsrc("vgb", b.outer("g_b"), "0", g9(bias.VCM-vdiff/2))
		b.vsrc("vda", b.outer("d_a"), "0", g6(bias.VD))
		b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
		b.isrc("ita", b.outer("s"), "0", g6(bias.ITail))
		b.op()
		res, err := s.run(b)
		if err != nil {
			return 0, fmt.Errorf("cascode dp offset testbench: %w", err)
		}
		ev.Sims++
		ia, err1 := res.OP.Current("vda")
		ib, err2 := res.OP.Current("vdb")
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("cascode dp offset testbench: currents missing")
		}
		return ia - ib, nil
	}
	const dv = 1e-3
	d1, err := di(+dv)
	if err != nil {
		return nil, err
	}
	d2, err := di(-dv)
	if err != nil {
		return nil, err
	}
	if d1 == d2 {
		ev.Values["offset"] = 0
	} else {
		ev.Values["offset"] = dv - d1*(2*dv)/(d1-d2)
	}
	return ev, nil
}
