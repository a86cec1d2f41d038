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

// capOf converts the complex node voltage that a capacitance probe
// (tb.capProbe, tb.measureC) reads under its 1 A AC current drive into
// the node capacitance: Y = 1/V, C = Im(Y)/ω = -Im(V)/(|V|²·ω). Using
// the imaginary part cancels the device output-conductance
// contribution that a magnitude-only reading would fold in. The
// measurement frequency is chosen so ωC dominates gds while ωRC of the
// wire network stays small.
func (b *tb) capOf(res *spice.Results) (float64, error) {
	vr, vi := res.Measures["vre"], res.Measures["vim"]
	den := (vr*vr + vi*vi) * 2 * math.Pi * fCap
	if den == 0 {
		return 0, fmt.Errorf("%s: zero response in capacitance testbench", b.deck.Title)
	}
	c := -vi / den
	if c <= 0 {
		return 0, fmt.Errorf("%s: non-capacitive response (C = %g)", b.deck.Title, c)
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

// An evaluation is one run of an entry's family testbenches on a
// sizing, a bias and a layout view: the layout configuration cfg with
// its extraction ex and port routes, or the schematic reference when
// ex is nil. Its decks go to s and fill Eval.
type evaluation struct {
	*Eval
	s       solver
	e       *Entry
	t       *pdk.Tech
	sz      Sizing
	bias    Bias
	cfg     cellgen.Config
	ex      *extract.Extracted
	routes  map[string]extract.Route
	circuit *tb // the family's circuit, once the first deck has opened
}

func (e *Entry) evaluate(s solver, t *pdk.Tech, sz Sizing, bias Bias,
	ex *extract.Extracted, routes map[string]extract.Route) (*Eval, error) {
	v := e.newEvaluation(s, t, sz, bias, ex, routes)
	if err := e.Family.eval(v); err != nil {
		return nil, err
	}
	return v.Eval, nil
}

func (e *Entry) newEvaluation(s solver, t *pdk.Tech, sz Sizing, bias Bias,
	ex *extract.Extracted, routes map[string]extract.Route) *evaluation {
	v := &evaluation{Eval: &Eval{Values: make(map[string]float64)},
		s: s, e: e, t: t, sz: sz, bias: bias, cfg: canonicalConfig(sz), ex: ex, routes: routes}
	if ex != nil {
		v.cfg = ex.Layout.Config
	}
	return v
}

// deck starts a testbench deck of the evaluation. A family with a
// circuit builds it once, when its first deck opens and under that
// deck's title, so that a build error reads as that deck's. Every deck
// then starts from that circuit and adds only its own sources,
// analyses and measures. The passives, whose decks differ in their
// first element, build each deck whole.
func (v *evaluation) deck(title string) *tb {
	build := v.e.Family.circuit
	if build == nil {
		return newTB(v.t, title, v.ex, v.routes)
	}
	if v.circuit == nil {
		v.circuit = newTB(v.t, title, v.ex, v.routes)
		build(v, v.circuit)
	}
	return v.circuit.extend(title)
}

// solve solves b's deck and counts it in Sims. Every testbench deck is
// solved here, and an error that stopped its build or its solve comes
// back under its title.
func (v *evaluation) solve(b *tb) (*spice.Results, error) {
	res, err := v.s.run(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.deck.Title, err)
	}
	v.Sims++
	return res, nil
}

// TestbenchBias projects bias onto the fields the entry's family
// testbenches read, zeroing the rest. Circuit-level biases carry more
// than a testbench uses: the RO-VCO's stages get their schematic-OP
// gate and drain voltages in VCM and VD, which the csinv testbenches
// never read and which differ across the symmetric ring only in the
// last bits. Keying and evaluating the projection lets such instances
// share one evaluation. The projection is per family, so a few
// entries keep a field they do not read (Vdd on NMOS pairs).
func (e *Entry) TestbenchBias(b Bias) Bias { return e.Family.bias(b) }

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

// --- differential pair families ---

// The plain and the cascoded pair measure Gm, Gm/Ctotal and offset
// through the same four testbenches (pair); they differ in their
// circuit and in the titles' prefix.
var (
	diffPairFamily = &Family{Name: "diffpair", circuit: (*evaluation).diffPair,
		eval: func(v *evaluation) error { return v.pair("dp") },
		bias: func(b Bias) Bias { return Bias{Vdd: b.Vdd, VCM: b.VCM, VD: b.VD, ITail: b.ITail, CLoad: b.CLoad} }}
	cascodePairFamily = &Family{Name: "diffpair_cascode", circuit: (*evaluation).cascodePair,
		eval: func(v *evaluation) error { return v.pair("cascode dp") },
		bias: func(b Bias) Bias { return Bias{VCM: b.VCM, VD: b.VD, ITail: b.ITail, CLoad: b.CLoad, VCasc: b.VCasc} }}
)

// diffPair adds the plain pair's circuit. PMOS pairs (cross-coupled
// latch loads) hang from the supply: bulks and tail at vdd.
func (v *evaluation) diffPair(b *tb) {
	rail := b.supply(v.e, v.bias.Vdd)
	b.mos("a", v.e, v.sz, 0, v.cfg, b.dev("d_a"), b.dev("g_a"), b.dev("s_a"), rail)
	b.mos("b", v.e, v.sz, 1, v.cfg, b.dev("d_b"), b.dev("g_b"), b.dev("s_b"), rail)
	// Per-side source straps join at the common spine tap.
	b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
	b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
}

// cascodePair adds the stacked circuit: the cell's device A is the
// input pair Ma/Mb, device B the common-gate cascodes Mca/Mcb above
// it. The input-pair drains are the internal mid nodes; the cascode
// drains own the external d_a/d_b ports. The cascode isolates the
// input devices from the drain routes (higher Rout, smaller Miller),
// which is exactly what the metric comparison against the plain pair
// shows.
func (v *evaluation) cascodePair(b *tb) {
	vcasc := v.bias.VCasc
	if vcasc <= 0 {
		vcasc = v.bias.VCM + 0.15
	}
	b.mos("a", v.e, v.sz, 0, v.cfg, "mid_a", b.dev("g_a"), b.dev("s_a"), "0")
	b.mos("b", v.e, v.sz, 0, v.cfg, "mid_b", b.dev("g_b"), b.dev("s_b"), "0")
	b.mosPolarity("ca", circuit.NMOS, v.sz, 1, v.cfg, b.dev("d_a"), "cascg", "mid_a", "0")
	b.mosPolarity("cb", circuit.NMOS, v.sz, 1, v.cfg, b.dev("d_b"), "cascg", "mid_b", "0")
	b.vsrc("vcasc", "cascg", "0", g6(vcasc))
	b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
	b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
}

// pair runs the differential pair testbenches: Gm, Ctotal at the d_a
// drain, and the input offset from two DC points. Each deck's title
// starts with prefix, and each draws the tail current at the s port
// from the entry's rail.
func (v *evaluation) pair(prefix string) error {
	bias := v.bias
	open := func(name string) *tb { return v.deck(prefix + " " + name + " testbench") }
	tail := func(b *tb) {
		if v.e.rail() == "vdd" {
			b.isrc("ita", "vdd", b.outer("s"), g6(bias.ITail))
		} else {
			b.isrc("ita", b.outer("s"), "0", g6(bias.ITail))
		}
	}

	// Testbench 1: Gm (Fig. 4) — differential AC drive, drains held,
	// AC drain current read through the drain voltage source.
	b := open("gm")
	b.vsrc("vga", b.outer("g_a"), "0", g6(bias.VCM)).ac(0.5)
	b.vsrc("vgb", b.outer("g_b"), "0", g6(bias.VCM)).ac(0.5).phase(180)
	b.vsrc("vda", b.outer("d_a"), "0", g6(bias.VD))
	b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
	tail(b)
	b.acSpot(fGm)
	b.find("gmhalf", "i(vda)", fGm)
	res, err := v.solve(b)
	if err != nil {
		return err
	}
	gm := 2 * res.Measures["gmhalf"]
	v.Values["Gm"] = gm

	// Testbench 2: Ctotal at the d_a drain.
	b = open("ctotal")
	b.vsrc("vga", b.outer("g_a"), "0", g6(bias.VCM))
	b.vsrc("vgb", b.outer("g_b"), "0", g6(bias.VCM))
	b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
	tail(b)
	b.capProbe("da", b.outer("d_a"), bias.VD, bias.CLoad)
	res, err = v.solve(b)
	if err != nil {
		return err
	}
	ct, err := b.capOf(res)
	if err != nil {
		return err
	}
	v.Values["Ctotal"] = ct
	v.Values["Gm/Ctotal"] = gm / ct

	// Testbenches 3, 4: input offset — the differential input that
	// zeroes the differential drain current, from two DC points.
	di := func(vdiff float64) (float64, error) {
		b := open("offset")
		b.vsrc("vga", b.outer("g_a"), "0", g9(bias.VCM+vdiff/2))
		b.vsrc("vgb", b.outer("g_b"), "0", g9(bias.VCM-vdiff/2))
		b.vsrc("vda", b.outer("d_a"), "0", g6(bias.VD))
		b.vsrc("vdb", b.outer("d_b"), "0", g6(bias.VD))
		tail(b)
		b.op()
		res, err := v.solve(b)
		if err != nil {
			return 0, err
		}
		ia, err1 := res.OP.Current("vda")
		ib, err2 := res.OP.Current("vdb")
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("%s: currents missing", b.deck.Title)
		}
		return ia - ib, nil
	}
	const dv = 1e-3
	d1, err := di(+dv)
	if err != nil {
		return err
	}
	d2, err := di(-dv)
	if err != nil {
		return err
	}
	if d1 == d2 {
		v.Values["offset"] = 0
	} else {
		// Linear zero crossing between the two points.
		v.Values["offset"] = dv - d1*(2*dv)/(d1-d2)
	}
	return nil
}

// --- current mirror family ---

var mirrorFamily = &Family{Name: "cmirror", circuit: (*evaluation).mirror, eval: (*evaluation).cmirror,
	bias: func(b Bias) Bias { return Bias{Vdd: b.Vdd, VD: b.VD, ITail: b.ITail, CLoad: b.CLoad} }}

// iref is a mirror's reference current: Sizing.NominalI, or ITail
// when that is 0.
func (v *evaluation) iref() float64 {
	if v.sz.NominalI > 0 {
		return v.sz.NominalI
	}
	return v.bias.ITail
}

// mirror adds the circuit every mirror deck holds: the mirror with its
// reference current pushed into an NMOS diode, or pulled out of a PMOS
// one.
func (v *evaluation) mirror(b *tb) {
	rail := b.supply(v.e, v.bias.Vdd)
	b.mos("a", v.e, v.sz, 0, v.cfg, b.dev("d_a"), b.dev("g_a"), b.dev("s_a"), rail)
	b.mos("b", v.e, v.sz, 1, v.cfg, b.dev("d_b"), b.dev("g_b"), b.dev("s_b"), rail)
	// Per-side source straps join the spine, which ties to the rail;
	// both gates tie to the input port through their wires.
	b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
	b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
	b.resistor("rtss", b.outer("s"), rail, 1e-3)
	b.resistor("rtga", b.outer("g_a"), b.outer("d_a"), 1e-3)
	b.resistor("rtgb", b.outer("g_b"), b.outer("d_a"), 1e-3)
	if rail == "vdd" {
		b.isrc("iref", b.outer("d_a"), "0", g6(v.iref()))
	} else {
		b.isrc("iref", "0", b.outer("d_a"), g6(v.iref()))
	}
}

func (v *evaluation) cmirror() error {
	iref := v.iref()
	if iref <= 0 {
		return fmt.Errorf("cmirror: no reference current in sizing/bias")
	}

	// Testbench 1: current ratio at DC.
	b := v.deck("cm ratio testbench")
	b.vsrc("vout", b.outer("d_b"), "0", g6(v.bias.VD))
	b.op()
	res, err := v.solve(b)
	if err != nil {
		return err
	}
	iout, err := res.OP.Current("vout")
	if err != nil {
		return err
	}
	v.Values["ratio"] = math.Abs(iout) / (iref * float64(v.e.ratio(v.sz)))
	v.Values["iout"] = math.Abs(iout)

	// Testbench 2: output capacitance.
	b = v.deck("cm cout testbench")
	b.capProbe("out", b.outer("d_b"), v.bias.VD, v.bias.CLoad)
	res, err = v.solve(b)
	if err != nil {
		return err
	}
	co, err := b.capOf(res)
	if err != nil {
		return err
	}
	v.Values["Cout"] = co
	return nil
}

// --- single-device families: current source / load and the
// common-source amplifier ---

var (
	sourceFamily = &Family{Name: "csource", circuit: (*evaluation).device, eval: (*evaluation).csource,
		bias: func(b Bias) Bias { return Bias{Vdd: b.Vdd, VCM: b.VCM, VD: b.VD} }}
	ampFamily = &Family{Name: "csamp", circuit: (*evaluation).device, eval: (*evaluation).csamp,
		bias: func(b Bias) Bias { return Bias{VCM: b.VCM, VD: b.VD, CLoad: b.CLoad} }}
)

// device adds the circuit of a single-device entry: the device, with
// its source strapped to the rail.
func (v *evaluation) device(b *tb) {
	rail := b.supply(v.e, v.bias.Vdd)
	b.mos("a", v.e, v.sz, 0, v.cfg, b.dev("d"), b.dev("g"), b.dev("s"), rail)
	b.resistor("rtss", b.outer("s"), rail, 1e-3)
}

// single starts a deck of a single-device entry: its circuit, then the
// gate source vg at VCM, the deck's own so that the deck may drive it.
func (v *evaluation) single(title string) (*tb, source) {
	b := v.deck(title)
	return b, b.vsrc("vg", b.outer("g"), "0", g6(v.bias.VCM))
}

// drainCurrent solves the DC deck title of a single-device entry with
// its drain held at vd, and returns the drain current.
func (v *evaluation) drainCurrent(title string, vd float64) (float64, error) {
	b, _ := v.single(title)
	b.vsrc("vd", b.outer("d"), "0", g9(vd))
	b.op()
	res, err := v.solve(b)
	if err != nil {
		return 0, err
	}
	return res.OP.Current("vd")
}

// ro is a single-device entry's output resistance from the drain
// currents of two DC decks title, dv either side of VD.
func (v *evaluation) ro(title string) (float64, error) {
	const dv = 0.025
	i1, err := v.drainCurrent(title, v.bias.VD+dv)
	if err != nil {
		return 0, err
	}
	i2, err := v.drainCurrent(title, v.bias.VD-dv)
	if err != nil {
		return 0, err
	}
	di := math.Abs(i1 - i2)
	if di <= 0 {
		return 0, fmt.Errorf("%s: no output conductance signal", title)
	}
	return 2 * dv / di, nil
}

func (v *evaluation) csource() error {
	const title = "cs current testbench"
	i0, err := v.drainCurrent(title, v.bias.VD)
	if err != nil {
		return err
	}
	v.Values["current"] = math.Abs(i0)
	ro, err := v.ro(title)
	if err != nil {
		return err
	}
	v.Values["ro"] = ro
	return nil
}

func (v *evaluation) csamp() error {
	// Testbench 1: Gm — AC at the gate, drain held, current measured.
	b, vg := v.single("cs gm testbench")
	vg.ac(1)
	b.vsrc("vd", b.outer("d"), "0", g6(v.bias.VD))
	b.acSpot(fGm)
	b.find("gmv", "i(vd)", fGm)
	res, err := v.solve(b)
	if err != nil {
		return err
	}
	v.Values["Gm"] = res.Measures["gmv"]

	// Testbenches 2, 3: output resistance.
	ro, err := v.ro("cs ro testbench")
	if err != nil {
		return err
	}
	v.Values["ro"] = ro

	// Cout for downstream consumers (not in the cost by default), left
	// out when the reading is not capacitive.
	b, _ = v.single("cs cout testbench")
	b.capProbe("d", b.outer("d"), v.bias.VD, v.bias.CLoad)
	res, err = v.solve(b)
	if err != nil {
		return err
	}
	if co, err := b.capOf(res); err == nil {
		v.Values["Cout"] = co
	}
	return nil
}

// --- current-starved inverter family ---

var inverterFamily = &Family{Name: "csinv", circuit: (*evaluation).inverter, eval: (*evaluation).csinv,
	bias: func(b Bias) Bias { return Bias{Vdd: b.Vdd, VCtrl: b.VCtrl, CLoad: b.CLoad} }}

// The delay testbench's PULSE delay (where its current average also
// starts), edge time and transient step, as its deck text spelled
// them. units.Parse scales the mantissa in float64, so 0.2n is
// 0.2 × 1e-9 = 2.0000000000000003e-10, not the constant 2e-10.
var (
	csinvDelay = units.MustParse("0.2n")
	csinvEdge  = units.MustParse("20p")
	csinvStep  = units.MustParse("5p")
)

// inverter adds the circuit every csinv deck holds. The cell holds the
// inverter device (A) and the starving device (B) for each polarity;
// both polarities share the layout configuration and wire geometry
// (stacked rows). The control sources starve the NMOS half at VCtrl
// and the PMOS half at Vdd-VCtrl, VCtrl defaulting to Vdd/2.
func (v *evaluation) inverter(b *tb) {
	vdd := v.bias.Vdd
	vctrl := v.bias.VCtrl
	if vctrl <= 0 {
		vctrl = vdd / 2
	}
	b.vsrc("vdd", "vdd", "0", g6(vdd))
	// NMOS half: out — Min — midn — (mid wire R) — Msn — (source wire
	// R) — ground; PMOS half mirrored to vdd.
	var rmid, rsrc float64
	if v.ex != nil {
		rmid = v.ex.Term["d_b"].R
		rsrc = v.ex.Term["s_a"].R + v.ex.Term["s"].R
	}
	if rmid <= 0 {
		rmid = 1e-3
	}
	if rsrc <= 0 {
		rsrc = 1e-3
	}
	b.mosPolarity("in", circuit.NMOS, v.sz, 0, v.cfg, b.dev("d_a"), b.dev("g_a"), "midn", "0")
	b.resistor("rmidn", "midn", "midn2", g6(rmid))
	b.mosPolarity("sn", circuit.NMOS, v.sz, 1, v.cfg, "midn2", b.dev("g_b"), "srn", "0")
	b.resistor("rsrcn", "srn", "0", g6(rsrc))
	b.mosPolarity("ip", circuit.PMOS, v.sz, 0, v.cfg, b.dev("d_a"), b.dev("g_a"), "midp", "vdd")
	b.resistor("rmidp", "midp", "midp2", g6(rmid))
	b.mosPolarity("sp", circuit.PMOS, v.sz, 1, v.cfg, "midp2", "ctrlp", "srp", "vdd")
	b.resistor("rsrcp", "srp", "vdd", g6(rsrc))
	b.vsrc("vctln", b.outer("g_b"), "0", g6(vctrl))
	b.vsrc("vctlp", "ctrlp", "0", g6(vdd-vctrl))
}

func (v *evaluation) csinv() error {
	vdd := v.bias.Vdd

	// Testbench 1: transient — stage delay and supply current.
	per := 4e-9
	b := v.deck("csinv delay testbench")
	b.pulse("vin", b.outer("g_a"), "0", 0, g6(vdd), csinvDelay, csinvEdge, csinvEdge, g6(per/2), g6(per))
	if v.bias.CLoad > 0 {
		b.capacitor("cload", b.outer("d_a"), "0", g6(v.bias.CLoad))
	}
	b.tran(csinvStep, g6(per*1.5))
	mid := vdd / 2
	b.trigTarg("tdf", "v("+b.outer("g_a")+")", g6(mid), "rise", "v("+b.outer("d_a")+")", g6(mid), "fall")
	b.trigTarg("tdr", "v("+b.outer("g_a")+")", g6(mid), "fall", "v("+b.outer("d_a")+")", g6(mid), "rise")
	b.avg("iavg", "i(vdd)", csinvDelay, g6(0.2e-9+per))
	res, err := v.solve(b)
	if err != nil {
		return err
	}
	v.Values["delay"] = (res.Measures["tdf"] + res.Measures["tdr"]) / 2
	v.Values["current"] = math.Abs(res.Measures["iavg"])

	// Testbench 2: small-signal gain near midscale.
	b = v.deck("csinv gain testbench")
	b.vsrc("vin", b.outer("g_a"), "0", g6(vdd/2)).ac(1)
	if v.bias.CLoad > 0 {
		b.capacitor("cload", b.outer("d_a"), "0", g6(v.bias.CLoad))
	}
	const fGain = 1e6
	b.acSpot(fGain)
	b.find("av", "vm("+b.outer("d_a")+")", fGain)
	res, err = v.solve(b)
	if err != nil {
		return err
	}
	v.Values["gain"] = res.Measures["av"]
	return nil
}
