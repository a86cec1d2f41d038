package primlib

import (
	"fmt"
	"math"
	"strconv"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/extract"
	"primopt/internal/pdk"
	"primopt/internal/spice"
)

// tb builds one SPICE testbench deck for a primitive, in memory.
// Device terminals route through the extracted within-primitive wire
// RC to port nodes, and optionally through external global-route RC
// to excitation nodes — exactly the two knobs the paper's two
// optimization steps turn.
//
// The testbenches were once printed as SPICE text and parsed back, and
// the pinned results depend on the values that round trip gave. So a
// deck keeps them bit for bit: g6 and g9 give the %.6g and %.9g
// roundings the text applied, and literal values are what the parser
// made of them. Devices are added in the order the text listed them:
// that is the stamping order, which sets the solver's rounding. A wire
// section goes in ahead of the device whose net argument first names
// it, because Go evaluates the arguments before the call.
type tb struct {
	deck   *spice.Deck
	err    error // the first build error; the deck is not solved
	tech   *pdk.Tech
	ex     *extract.Extracted // nil = schematic reference
	routes map[string]extract.Route
}

func newTB(t *pdk.Tech, title string, ex *extract.Extracted, routes map[string]extract.Route) *tb {
	// "deck" is the netlist name ParseDeck gives; engine errors quote it.
	return &tb{
		deck: &spice.Deck{Title: title, Netlist: circuit.New("deck")},
		tech: t, ex: ex, routes: routes,
	}
}

// extend starts the deck title from b's circuit as it stands: the
// deck holds b's devices and wire sections, the same values, and adds
// its own elements after them, which b never sees. A deck sets only
// the devices it adds, so every deck of an evaluation starts from the
// same circuit.
func (b *tb) extend(title string) *tb {
	return &tb{
		deck:   &spice.Deck{Title: title, Netlist: b.deck.Netlist.Extend()},
		err:    b.err,
		tech:   b.tech,
		ex:     b.ex,
		routes: b.routes,
	}
}

// g6 returns what v printed with %.6g parses back to; g9 likewise for
// %.9g.
func g6(v float64) float64 { return roundDigits(v, 6) }
func g9(v float64) float64 { return roundDigits(v, 9) }

func roundDigits(v float64, digits int) float64 {
	var buf [32]byte
	r, err := strconv.ParseFloat(string(strconv.AppendFloat(buf[:0], v, 'g', digits, 64)), 64)
	if err != nil {
		// Every rounding of a float64 parses; fail the build if not.
		return math.NaN()
	}
	return r
}

// finite fails the build when v, the value key of the device or
// statement name, is NaN or infinite, as its text ("NaN", "+Inf")
// failed to parse.
func (b *tb) finite(v float64, name, key string) {
	if b.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		b.err = fmt.Errorf("primlib: %s: %s %s = %g", b.deck.Title, name, key, v)
	}
}

// add puts d into the netlist, its values checked by finite. Names
// are built from cellgen wire keys, so a failed Add is the build's
// error, not a panic.
func (b *tb) add(d *circuit.Device) {
	var buf [10]circuit.KeyValue
	for _, kv := range d.AppendValues(buf[:0]) {
		b.finite(kv.Val, d.Name, kv.Key)
	}
	if b.err == nil {
		b.err = b.deck.Netlist.Add(d)
	}
}

// twoTerminal adds "name p n v" for a resistor, capacitor or inductor.
func (b *tb) twoTerminal(typ circuit.DeviceType, name, p, n string, v float64) {
	b.add(&circuit.Device{Name: name, Type: typ, Nets: []string{p, n}, Value: v})
}

func (b *tb) resistor(name, p, n string, r float64) {
	b.twoTerminal(circuit.Resistor, name, p, n, r)
}

func (b *tb) capacitor(name, p, n string, c float64) {
	b.twoTerminal(circuit.Capacitor, name, p, n, c)
}

func (b *tb) inductor(name, p, n string, l float64) {
	b.twoTerminal(circuit.Inductor, name, p, n, l)
}

// source is a V or I device in the deck, for adding its AC drive.
type source struct {
	b *tb
	d *circuit.Device
}

// vsrc adds the voltage source "name p n DC dc" and isrc the current
// source. A source always has a dc parameter, 0 for an AC-only drive.
func (b *tb) vsrc(name, p, n string, dc float64) source {
	return b.source(circuit.VSource, name, p, n, dc)
}

func (b *tb) isrc(name, p, n string, dc float64) source {
	return b.source(circuit.ISource, name, p, n, dc)
}

func (b *tb) source(typ circuit.DeviceType, name, p, n string, dc float64) source {
	d := &circuit.Device{Name: name, Type: typ, Nets: []string{p, n}, DC: dc}
	b.add(d)
	return source{b, d}
}

// ac adds the drive "AC mag".
func (s source) ac(mag float64) source {
	s.b.finite(mag, s.d.Name, "acmag")
	s.d.ACMag = mag
	return s
}

// phase adds the phase, in degrees, that follows the AC magnitude.
func (s source) phase(deg float64) {
	s.b.finite(deg, s.d.Name, "acphase")
	s.d.ACPhase = deg
}

// pulse adds the voltage source "name p n PULSE(args)"; its dc
// parameter is the first argument, the initial value.
func (b *tb) pulse(name, p, n string, args ...float64) {
	for _, a := range args {
		b.finite(a, name, "pulse")
	}
	b.add(&circuit.Device{Name: name, Type: circuit.VSource, Nets: []string{p, n}, DC: args[0],
		Wave: &circuit.SourceWave{Kind: "pulse", Args: args}})
}

// op adds ".op".
func (b *tb) op() {
	b.deck.Analyses = append(b.deck.Analyses, spice.Analysis{Kind: "op"})
}

// acSpot adds ".ac lin 1 <f> <f>": the small-signal solve at the one
// frequency f that the deck's finds read.
func (b *tb) acSpot(f float64) {
	b.deck.Analyses = append(b.deck.Analyses,
		spice.Analysis{Kind: "ac", Points: 1, Lin: true, FStart: f, FStop: f})
}

// tran adds ".tran <step> <stop>".
func (b *tb) tran(step, stop float64) {
	b.finite(stop, ".tran", "tstop")
	b.deck.Analyses = append(b.deck.Analyses, spice.Analysis{Kind: "tran", TStep: step, TStop: stop})
}

// find adds ".measure ac <name> find <expr> at=<f>".
func (b *tb) find(name, expr string, f float64) {
	b.deck.Measures = append(b.deck.Measures,
		spice.Measure{Analysis: "ac", Name: name, Kind: "find", Expr: expr, At: f})
}

// trigTarg adds ".measure tran <name> trig <trig> val=<trigVal>
// <trigDir>=1 targ <targ> val=<targVal> <targDir>=1".
func (b *tb) trigTarg(name, trig string, trigVal float64, trigDir, targ string, targVal float64, targDir string) {
	b.finite(trigVal, name, "trig val")
	b.finite(targVal, name, "targ val")
	b.deck.Measures = append(b.deck.Measures, spice.Measure{
		Analysis: "tran", Name: name, Kind: "trigtarg",
		TrigExpr: trig, TrigVal: trigVal, TrigEdge: spice.Edge{Dir: trigDir, N: 1},
		TargExpr: targ, TargVal: targVal, TargEdge: spice.Edge{Dir: targDir, N: 1},
	})
}

// avg adds ".measure tran <name> avg <expr> from=<from> to=<to>".
func (b *tb) avg(name, expr string, from, to float64) {
	b.finite(to, name, "to")
	b.deck.Measures = append(b.deck.Measures, spice.Measure{
		Analysis: "tran", Name: name, Kind: "avg", Expr: expr, From: from, To: to,
	})
}

// dev returns the net name the device terminal for wire key w should
// connect to, emitting the wire/route sections on first use.
func (b *tb) dev(w string) string {
	if b.ex == nil {
		return "p_" + w
	}
	b.emitWire(w)
	return "x_" + w
}

// port returns the port-side net name for wire key w ("p_<w>"),
// emitting its wire section.
func (b *tb) port(w string) string {
	if b.ex != nil {
		b.emitWire(w)
	}
	return "p_" + w
}

// outer returns the net name excitation and loads should attach to
// for wire key w: past the external route when one exists.
func (b *tb) outer(w string) string {
	if b.ex == nil {
		return "p_" + w
	}
	b.emitWire(w)
	if _, ok := b.routes[w]; ok {
		return "e_" + w
	}
	return "p_" + w
}

// emitWire adds the π-section for a wire key (and its external route
// when present) once: its first device, Rw_<w>, marks it emitted.
func (b *tb) emitWire(w string) {
	if b.ex == nil || b.deck.Netlist.Device("Rw_"+w) != nil {
		return
	}
	x, p := "x_"+w, "p_"+w
	rc, ok := b.ex.Term[w]
	if !ok {
		// No layout wire for this terminal: direct connection.
		b.resistor("Rw_"+w, x, p, 1e-3)
		return
	}
	b.resistor("Rw_"+w, x, p, g6(rc.R))
	if rc.CNear > 0 {
		b.capacitor("Cwn_"+w, x, "0", g6(rc.CNear))
	}
	if rc.CFar > 0 {
		b.capacitor("Cwf_"+w, p, "0", g6(rc.CFar))
	}
	if rt, ok := b.routes[w]; ok {
		r, c := extract.RouteRC(b.tech, rt)
		e := "e_" + w
		b.resistor("Rr_"+w, p, e, g6(r))
		b.capacitor("Crn_"+w, p, "0", g6(c/2))
		b.capacitor("Crf_"+w, e, "0", g6(c/2))
	}
}

// mos adds the MOS device "M<name>" for logical device dev (0 = A,
// 1 = B) of the layout, with LDE and junction parameters from
// extraction. The nets are raw net names (caller picks
// dev()/outer()/fixed rails).
func (b *tb) mos(name string, e *Entry, sz Sizing, dev int, cfg cellgen.Config, d, g, s, bulk string) {
	mult := cfg.M
	if dev == 1 {
		mult = cfg.M * e.ratio(sz)
	}
	b.addMOS(name, e.MOSType, cfg.NFin, cfg.NF, mult, sz.L, dev, d, g, s, bulk)
}

// mosPolarity adds a MOS device of an explicit polarity — used by the
// current-starved inverter, whose cell holds both polarities.
func (b *tb) mosPolarity(name string, typ circuit.DeviceType, sz Sizing, dev int, cfg cellgen.Config, d, g, s, bulk string) {
	b.addMOS(name, typ, cfg.NFin, cfg.NF, cfg.M, sz.L, dev, d, g, s, bulk)
}

func (b *tb) addMOS(name string, typ circuit.DeviceType, nfin, nf, mult int, l int64, dev int, d, g, s, bulk string) {
	// The text gave the length in meters, "l=<l>e-9", and the parser
	// scaled it back to nm. l/1e9 is the correctly rounded quotient,
	// as parsing is, so 15 nm comes back as 14.999999999999998.
	mos := circuit.MOS{NFin: float64(nfin), NF: float64(nf), M: float64(mult), L: float64(l) / 1e9 * 1e9}
	if b.ex != nil && dev < len(b.ex.Dev) {
		p := b.ex.Dev[dev]
		mos.Extracted = true
		mos.DVth, mos.DMu = g6(p.DVth), g6(p.DMu)
		mos.AD, mos.AS, mos.PD, mos.PS = g6(p.AD), g6(p.AS), g6(p.PD), g6(p.PS)
	}
	b.add(&circuit.Device{Name: "M" + name, Type: typ, Nets: []string{d, g, s, bulk}, MOS: mos})
}

// supply adds the vdd source that a PMOS entry's devices hang from and
// returns the entry's rail.
func (b *tb) supply(e *Entry, vdd float64) string {
	rail := e.rail()
	if rail == "vdd" {
		b.vsrc("vdd", "vdd", "0", g6(vdd))
	}
	return rail
}

// capProbe adds a MOS node's capacitance probe: a 1 A AC current drive
// into node, which a 1 H inductor (a DC short that is open at the
// measurement frequency) holds at dc, the external load cload when
// positive, and the measurement that capOf reads.
func (b *tb) capProbe(name, node string, dc, cload float64) {
	b.isrc("ix", "0", node, 0).ac(1)
	bb := "bb_" + name
	b.inductor("Lb_"+name, node, bb, 1)
	b.vsrc("Vb_"+name, bb, "0", g6(dc))
	if cload > 0 {
		b.capacitor("cext", node, "0", g6(cload))
	}
	b.measureC(node)
}

// measureC adds the AC solve and the measures of node's complex
// voltage at fCap that capOf reads.
func (b *tb) measureC(node string) {
	b.acSpot(fCap)
	b.find("vre", "vr("+node+")", fCap)
	b.find("vim", "vi("+node+")", fCap)
}
