package flow

import (
	"fmt"
	"sort"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/circuits"
	"primopt/internal/extract"
	"primopt/internal/pdk"
)

// Assemble builds the post-layout netlist: a clone of the schematic
// with, per primitive instance, the extracted device parameters (LDE
// Vth/mobility shifts, junction diffusion geometry) applied to its
// transistors and the within-primitive wire RC spliced as π-sections
// between each device terminal and its circuit net. External
// global-route RC (with the reconciled parallel counts) is chained
// outside the primitive wire on routed ports.
func Assemble(t *pdk.Tech, bm *circuits.Benchmark, choices map[string]*chosen) (*circuit.Netlist, error) {
	nl := bm.Schematic.Clone()
	for _, name := range sortedKeys(choices) {
		if err := spliceInstance(t, nl, name, choices[name]); err != nil {
			return nil, fmt.Errorf("flow: assembling %s: %w", name, err)
		}
	}
	return nl, nil
}

// pin indices within a MOS device's net list.
const (
	pinD = 0
	pinG = 1
	pinS = 2
)

// spliceInstance applies one primitive's extraction to the netlist.
func spliceInstance(t *pdk.Tech, nl *circuit.Netlist, name string, ch *chosen) error {
	in := ch.inst
	ex := ch.ex

	// 1. Device parameters.
	apply := func(devs []string, p extract.DevParasitics) error {
		for _, dn := range devs {
			d := nl.Device(dn)
			if d == nil {
				return fmt.Errorf("device %s missing", dn)
			}
			m := &d.MOS
			m.Extracted = true
			m.DVth, m.DMu = p.DVth, p.DMu
			m.AD, m.AS, m.PD, m.PS = p.AD, p.AS, p.PD, p.PS
		}
		return nil
	}
	if len(ex.Dev) > 0 {
		if err := apply(in.DevA, ex.Dev[0]); err != nil {
			return err
		}
	}
	if len(ex.Dev) > 1 && len(in.DevB) > 0 {
		if err := apply(in.DevB, ex.Dev[1]); err != nil {
			return err
		}
	}

	// 2. Wire π-sections. The splice plan depends on the primitive's
	// structure.
	if ex.Layout.Spec.Structure == cellgen.Pair {
		switch in.Kind {
		case "csinv":
			return spliceCSInv(t, nl, name, ch)
		case "diffpair_cascode":
			return spliceCascodePair(t, nl, name, ch)
		default:
			return splicePair(t, nl, name, ch)
		}
	}
	return spliceSingle(t, nl, name, ch)
}

// spliceCascodePair handles the cascoded pair: DevA holds the two
// input transistors, DevB the two cascodes. The external drain wires
// belong to the cascode drains; gates and the source chain belong to
// the input pair. The short input-to-cascode mid connections are left
// unspliced (they are abutment-level connections in the generated
// cell).
func spliceCascodePair(t *pdk.Tech, nl *circuit.Netlist, name string, ch *chosen) error {
	in := ch.inst
	ex := ch.ex
	if len(in.DevA) != 2 || len(in.DevB) != 2 {
		return fmt.Errorf("cascode pair %s wants 2+2 devices, has %d+%d",
			name, len(in.DevA), len(in.DevB))
	}
	simple := []struct {
		wire string
		pin  pinRef
	}{
		{"d_a", pinRef{in.DevB[0], pinD}},
		{"d_b", pinRef{in.DevB[1], pinD}},
		{"g_a", pinRef{in.DevA[0], pinG}},
		{"g_b", pinRef{in.DevA[1], pinG}},
	}
	for _, s := range simple {
		rc, ok := ex.Term[s.wire]
		if !ok {
			continue
		}
		if err := spliceWire(t, nl, name, s.wire, rc, routeOf(ch, s.wire), []pinRef{s.pin}); err != nil {
			return err
		}
	}
	// Source chain on the input pair, as in splicePair.
	da, db := nl.Device(in.DevA[0]), nl.Device(in.DevA[1])
	if da == nil || db == nil {
		return fmt.Errorf("cascode input devices missing")
	}
	tailNet := da.Nets[pinS]
	if db.Nets[pinS] != tailNet {
		return fmt.Errorf("cascode pair sources on different nets")
	}
	spine := newNode(name, "s.spine", 0)
	na := newNode(name, "s_a", 0)
	nb := newNode(name, "s_b", 0)
	da.Nets[pinS] = na
	db.Nets[pinS] = nb
	rcA, rcB, rcS := ex.Term["s_a"], ex.Term["s_b"], ex.Term["s"]
	ad := &adder{nl: nl}
	ad.R(name+"_rw_s_a", na, spine, max1m(rcA.R))
	ad.R(name+"_rw_s_b", nb, spine, max1m(rcB.R))
	ad.C(name+"_cw_s_a", na, rcA.Total())
	ad.C(name+"_cw_s_b", nb, rcB.Total())
	ad.R(name+"_rw_s", spine, tailNet, max1m(rcS.R))
	ad.C(name+"_cwn_s", spine, rcS.CNear)
	ad.C(name+"_cwf_s", tailNet, rcS.CFar)
	return ad.err
}

// newNode returns a fresh internal net name.
func newNode(name, wire string, k int) string {
	if k == 0 {
		return fmt.Sprintf("%s.%s", name, wire)
	}
	return fmt.Sprintf("%s.%s.%d", name, wire, k)
}

// spliceWire moves the given device pins onto a fresh node and wires
// the node to the pins' original net through the terminal RC and —
// when the port is routed — the external route RC. All listed pins
// must share one original net.
func spliceWire(t *pdk.Tech, nl *circuit.Netlist, name, wire string,
	rc extract.TermRC, rt *extract.Route, pins []pinRef) error {
	if len(pins) == 0 {
		return nil
	}
	orig := ""
	for _, pr := range pins {
		d := nl.Device(pr.dev)
		if d == nil {
			return fmt.Errorf("device %s missing", pr.dev)
		}
		n := d.Nets[pr.pin]
		if orig == "" {
			orig = n
		} else if orig != n {
			return fmt.Errorf("pins of wire %s disagree on net (%s vs %s)", wire, orig, n)
		}
	}
	inner := newNode(name, wire, 0)
	for _, pr := range pins {
		nl.Device(pr.dev).Nets[pr.pin] = inner
	}
	ad := &adder{nl: nl}
	if rt == nil {
		ad.R(name+"_rw_"+wire, inner, orig, max1m(rc.R))
		ad.C(name+"_cwn_"+wire, inner, rc.CNear)
		ad.C(name+"_cwf_"+wire, orig, rc.CFar)
		return ad.err
	}
	// Routed port: inner --R(wire)--> port --R(route)--> orig.
	port := newNode(name, wire+".port", 0)
	ad.R(name+"_rw_"+wire, inner, port, max1m(rc.R))
	ad.C(name+"_cwn_"+wire, inner, rc.CNear)
	ad.C(name+"_cwf_"+wire, port, rc.CFar)
	routeR, routeC := extract.RouteRC(t, *rt)
	ad.R(name+"_rt_"+wire, port, orig, max1m(routeR))
	ad.C(name+"_crtp_"+wire, port, routeC/2)
	ad.C(name+"_crtf_"+wire, orig, routeC/2)
	return ad.err
}

type pinRef struct {
	dev string
	pin int
}

// adder accumulates parasitic devices onto a netlist, capturing the
// first Add failure (duplicate name, malformed device) so splice
// helpers surface it as an error instead of panicking mid-assembly.
type adder struct {
	nl  *circuit.Netlist
	err error
}

func (ad *adder) R(name, a, b string, r float64) {
	if ad.err != nil {
		return
	}
	ad.err = ad.nl.Add(&circuit.Device{Name: name, Type: circuit.Resistor, Nets: []string{a, b}, Value: r})
}

func (ad *adder) C(name, node string, c float64) {
	if ad.err != nil || c <= 0 || node == "" {
		return
	}
	ad.err = ad.nl.Add(&circuit.Device{Name: name, Type: circuit.Capacitor, Nets: []string{node, "0"}, Value: c})
}

// splicePair handles diffpair/cmirror/xcpair structures: independent
// drain and gate wires per side, and the source chain (per-side
// straps joining a spine that connects to the tail net).
func splicePair(t *pdk.Tech, nl *circuit.Netlist, name string, ch *chosen) error {
	in := ch.inst
	ex := ch.ex
	if len(in.DevA) != 1 || len(in.DevB) != 1 {
		return fmt.Errorf("pair primitive %s wants 1+1 devices, has %d+%d",
			in.Kind, len(in.DevA), len(in.DevB))
	}
	a, b := in.DevA[0], in.DevB[0]
	simple := []struct {
		wire string
		pin  pinRef
	}{
		{"d_a", pinRef{a, pinD}},
		{"d_b", pinRef{b, pinD}},
		{"g_a", pinRef{a, pinG}},
		{"g_b", pinRef{b, pinG}},
	}
	for _, s := range simple {
		rc, ok := ex.Term[s.wire]
		if !ok {
			continue
		}
		rt := routeOf(ch, s.wire)
		if err := spliceWire(t, nl, name, s.wire, rc, rt, []pinRef{s.pin}); err != nil {
			return err
		}
	}
	// Source chain: a.pin2 -> R(s_a) -> spine; b.pin2 -> R(s_b) ->
	// spine; spine -> R(s) [-> route] -> tail net.
	da, db := nl.Device(a), nl.Device(b)
	if da == nil || db == nil {
		return fmt.Errorf("pair devices missing")
	}
	tailNet := da.Nets[pinS]
	if db.Nets[pinS] != tailNet {
		// Split-source pair (e.g. the StrongARM cross-coupled pair,
		// whose sources ride the two internal nodes): each side takes
		// its strap group plus its own share of the spine.
		rcA := ex.Term["s_a"]
		rcB := ex.Term["s_b"]
		rcS := ex.Term["s"]
		for _, side := range []struct {
			dev  string
			wire string
			rc   extract.TermRC
		}{
			{a, "s_a", extract.TermRC{R: rcA.R + rcS.R/2, CNear: rcA.Total(), CFar: rcS.Total() / 2}},
			{b, "s_b", extract.TermRC{R: rcB.R + rcS.R/2, CNear: rcB.Total(), CFar: rcS.Total() / 2}},
		} {
			if err := spliceWire(t, nl, name, side.wire, side.rc, routeOf(ch, side.wire), []pinRef{{side.dev, pinS}}); err != nil {
				return err
			}
		}
		return nil
	}
	spine := newNode(name, "s.spine", 0)
	na := newNode(name, "s_a", 0)
	nb := newNode(name, "s_b", 0)
	da.Nets[pinS] = na
	db.Nets[pinS] = nb
	rcA := ex.Term["s_a"]
	rcB := ex.Term["s_b"]
	rcS := ex.Term["s"]
	ad := &adder{nl: nl}
	ad.R(name+"_rw_s_a", na, spine, max1m(rcA.R))
	ad.R(name+"_rw_s_b", nb, spine, max1m(rcB.R))
	ad.C(name+"_cw_s_a", na, rcA.Total())
	ad.C(name+"_cw_s_b", nb, rcB.Total())
	if rt := routeOf(ch, "s"); rt != nil {
		port := newNode(name, "s.port", 0)
		ad.R(name+"_rw_s", spine, port, max1m(rcS.R))
		ad.C(name+"_cwn_s", spine, rcS.CNear)
		ad.C(name+"_cwf_s", port, rcS.CFar)
		routeR, routeC := extract.RouteRC(t, *rt)
		ad.R(name+"_rt_s", port, tailNet, max1m(routeR))
		ad.C(name+"_crtp_s", port, routeC/2)
		ad.C(name+"_crtf_s", tailNet, routeC/2)
	} else {
		ad.R(name+"_rw_s", spine, tailNet, max1m(rcS.R))
		ad.C(name+"_cwn_s", spine, rcS.CNear)
		ad.C(name+"_cwf_s", tailNet, rcS.CFar)
	}
	return ad.err
}

func max1m(r float64) float64 {
	if r < 1e-3 {
		return 1e-3
	}
	return r
}

// spliceSingle handles single-device primitives.
func spliceSingle(t *pdk.Tech, nl *circuit.Netlist, name string, ch *chosen) error {
	in := ch.inst
	ex := ch.ex
	if len(in.DevA) != 1 {
		return fmt.Errorf("single primitive %s wants 1 device, has %d", in.Kind, len(in.DevA))
	}
	a := in.DevA[0]
	for _, s := range []struct {
		wire string
		pin  int
	}{{"d", pinD}, {"g", pinG}, {"s", pinS}} {
		rc, ok := ex.Term[s.wire]
		if !ok {
			continue
		}
		rt := routeOf(ch, s.wire)
		if err := spliceWire(t, nl, name, s.wire, rc, rt, []pinRef{{a, s.pin}}); err != nil {
			return err
		}
	}
	return nil
}

// spliceCSInv handles the current-starved inverter: DevA holds the
// inverting devices (both polarities), DevB the starving devices.
// Wires: d_a = shared output, g_a = shared input, g_b = control,
// d_b = per-polarity mid connection, s_b+s = per-polarity rail
// connection.
func spliceCSInv(t *pdk.Tech, nl *circuit.Netlist, name string, ch *chosen) error {
	in := ch.inst
	ex := ch.ex
	if len(in.DevA) == 0 || len(in.DevB) == 0 {
		return fmt.Errorf("csinv %s needs DevA and DevB device lists", name)
	}
	// Output and input: all DevA drains / gates share their nets.
	outPins := make([]pinRef, 0, len(in.DevA))
	inPins := make([]pinRef, 0, len(in.DevA))
	for _, dn := range in.DevA {
		outPins = append(outPins, pinRef{dn, pinD})
		inPins = append(inPins, pinRef{dn, pinG})
	}
	if rc, ok := ex.Term["d_a"]; ok {
		if err := spliceWire(t, nl, name, "d_a", rc, routeOf(ch, "d_a"), outPins); err != nil {
			return err
		}
	}
	if rc, ok := ex.Term["g_a"]; ok {
		if err := spliceWire(t, nl, name, "g_a", rc, routeOf(ch, "g_a"), inPins); err != nil {
			return err
		}
	}
	// Control gates share the vctl net across polarities only for the
	// NMOS side (the PMOS side uses the mirrored control); splice per
	// original net group.
	if rc, ok := ex.Term["g_b"]; ok {
		groups := groupByNet(nl, in.DevB, pinG)
		k := 0
		for _, g := range groups {
			if err := spliceWireK(t, nl, name, "g_b", k, rc, routeOf(ch, "g_b"), g); err != nil {
				return err
			}
			k++
		}
	}
	// Mid connections: each DevA source to its own mid net.
	if rc, ok := ex.Term["d_b"]; ok {
		k := 0
		for _, dn := range in.DevA {
			if err := spliceWireK(t, nl, name, "d_b", k, rc, nil, []pinRef{{dn, pinS}}); err != nil {
				return err
			}
			k++
		}
	}
	// Rail connections: each DevB source through strap+spine R.
	rcRail := extract.TermRC{
		R:     ex.Term["s_b"].R + ex.Term["s"].R,
		CNear: ex.Term["s_b"].CNear + ex.Term["s"].CNear,
		CFar:  ex.Term["s_b"].CFar + ex.Term["s"].CFar,
	}
	k := 0
	for _, dn := range in.DevB {
		if err := spliceWireK(t, nl, name, "s", k, rcRail, nil, []pinRef{{dn, pinS}}); err != nil {
			return err
		}
		k++
	}
	return nil
}

// spliceWireK is spliceWire with a disambiguating suffix for repeated
// wires of the same key.
func spliceWireK(t *pdk.Tech, nl *circuit.Netlist, name, wire string, k int,
	rc extract.TermRC, rt *extract.Route, pins []pinRef) error {
	return spliceWire(t, nl, fmt.Sprintf("%s%d", name, k), wire, rc, rt, pins)
}

// groupByNet clusters device pins by their current net.
func groupByNet(nl *circuit.Netlist, devs []string, pin int) [][]pinRef {
	byNet := map[string][]pinRef{}
	for _, dn := range devs {
		d := nl.Device(dn)
		if d == nil {
			continue
		}
		byNet[d.Nets[pin]] = append(byNet[d.Nets[pin]], pinRef{dn, pin})
	}
	nets := make([]string, 0, len(byNet))
	for n := range byNet {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	out := make([][]pinRef, 0, len(nets))
	for _, n := range nets {
		out = append(out, byNet[n])
	}
	return out
}

// routeOf returns the external route for a wire key (nil when absent),
// with RC resolved at the current parallel count.
func routeOf(ch *chosen, wire string) *extract.Route {
	if ch.routes == nil {
		return nil
	}
	rt, ok := ch.routes[wire]
	if !ok {
		return nil
	}
	return &rt
}
