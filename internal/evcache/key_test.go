package evcache

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/extract"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// routedInverter is a csinv layout and a route override of two of
// its ports, as portopt sweeps them.
func routedInverter() (*cellgen.Layout, map[string]extract.Route) {
	lay := &cellgen.Layout{
		Config: cellgen.Config{NFin: 4, NF: 2, M: 2, Dummies: 1, Pattern: cellgen.PatA},
		Wires: map[string]*cellgen.WireEst{
			"vctl": {NWires: 1}, "out": {NWires: 3}, "in": {NWires: 1},
		},
	}
	routes := map[string]extract.Route{
		"out": {Layer: 2, Length: 500, NWires: 4, PinLayer: 1, Vias: 2},
		"in":  {Layer: 1, Length: 300, NWires: 2, PinLayer: 1, Vias: 3},
	}
	return lay, routes
}

// TestKeyGolden pins the key bytes, from Key and from a KeyPrefix.
// Keys index the disk tier, so a directory written by an earlier build
// stays warm only while these strings hold: a change that moves a byte
// must bump SchemaVersion and edit this test. The strings embed
// pdk.Default()'s fingerprint, so a change to the default PDK moves
// them too; that is a new PDK, not a new format, and needs no bump.
func TestKeyGolden(t *testing.T) {
	inv, routes := routedInverter()
	for _, tc := range []struct {
		name   string
		e      *primlib.Entry
		sz     primlib.Sizing
		bias   primlib.Bias
		lay    *cellgen.Layout
		routes map[string]extract.Route
		want   string
	}{
		{
			"schematic", primlib.CurrentMirror,
			primlib.Sizing{TotalFins: 64, L: 14, RatioB: 2, NominalI: 20e-6},
			primlib.Bias{Vdd: 0.8, VD: 0.4, ITail: 20e-6, CLoad: 5e-15}, nil, nil,
			"v3|pdk=dc9248e7b74b4e25|cmirror|fins=64;L=14;rB=2;I=2e-05|vdd=0.8;vcm=0;vd=0.4;it=2e-05;cl=5e-15;vctl=0;vcas=0|schematic",
		},
		{
			"layout, two wires", primlib.DiffPair, primlib.Sizing{TotalFins: 960, L: 14},
			primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}, testLayout(), nil,
			"v3|pdk=dc9248e7b74b4e25|diffpair|fins=960;L=14;rB=0;I=0|vdd=0.8;vcm=0.45;vd=0.4;it=0.0001;cl=5e-15;vctl=0;vcas=0|cfg=12/20/4/2/ABBA|d_a=2|s=1",
		},
		{
			"layout with routes", primlib.CSInverter, primlib.Sizing{TotalFins: 16, L: 14},
			primlib.Bias{Vdd: 0.8, VCM: 0.35967466467973946, VD: 0.4, CLoad: 6e-15, VCtrl: 0.6}, inv, routes,
			"v3|pdk=dc9248e7b74b4e25|csinv|fins=16;L=14;rB=0;I=0|vdd=0.8;vcm=0;vd=0;it=0;cl=6e-15;vctl=0.6;vcas=0|cfg=4/2/2/1/A|in=1|out=3|vctl=1|r:in=1/300/2/1/3|r:out=2/500/4/1/2",
		},
	} {
		if got := Key(testFP, tc.e, tc.sz, tc.bias, tc.lay, tc.routes); got != tc.want {
			t.Errorf("%s key:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if got := NewKeyPrefix(testFP, tc.e, tc.sz, tc.bias).Key(tc.lay, tc.routes); got != tc.want {
			t.Errorf("%s key from its prefix:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// fmtKey is the fmt rendering Key replaced, kept as the reference it
// must match byte for byte.
func fmtKey(pdkFP string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, lay *cellgen.Layout, routes map[string]extract.Route) string {
	bias = e.TestbenchBias(bias)
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|pdk=%s|%s", SchemaVersion, pdkFP, e.Kind)
	fmt.Fprintf(&b, "|fins=%d;L=%d;rB=%d;I=%g", sz.TotalFins, sz.L, sz.RatioB, sz.NominalI)
	fmt.Fprintf(&b, "|vdd=%g;vcm=%g;vd=%g;it=%g;cl=%g;vctl=%g;vcas=%g",
		bias.Vdd, bias.VCM, bias.VD, bias.ITail, bias.CLoad, bias.VCtrl, bias.VCasc)
	if lay == nil {
		b.WriteString("|schematic")
	} else {
		c := lay.Config
		fmt.Fprintf(&b, "|cfg=%d/%d/%d/%d/%s", c.NFin, c.NF, c.M, c.Dummies, c.Pattern)
		names := make([]string, 0, len(lay.Wires))
		for w := range lay.Wires {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			fmt.Fprintf(&b, "|%s=%d", w, lay.Wires[w].NWires)
		}
	}
	if len(routes) > 0 {
		ports := make([]string, 0, len(routes))
		for w := range routes {
			ports = append(ports, w)
		}
		sort.Strings(ports)
		for _, w := range ports {
			r := routes[w]
			fmt.Fprintf(&b, "|r:%s=%d/%d/%d/%d/%d", w, r.Layer, r.Length, r.NWires, r.PinLayer, r.Vias)
		}
	}
	return b.String()
}

// TestKeyMatchesFmt checks the strconv rendering against the fmt one
// for every registered kind, with and without a layout and routes,
// over the float values whose %g text has edge cases: signed zero,
// tiny and huge magnitudes, one-ulp neighbours, a subnormal, ±Inf
// and NaN.
func TestKeyMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-15, 100e-6, 0.35967466467973946,
		math.Nextafter(0.35967466467973946, 1), 5e-324, 2.2250738585072014e-309,
		1e300, math.Inf(1), math.Inf(-1), math.NaN(), -0.4, 0.8, 1e21, 123456789,
	}
	ints := []int64{0, 1, -1, 14, 960, math.MaxInt64, math.MinInt64}
	lay, routes := routedInverter()
	layouts := []*cellgen.Layout{nil, testLayout(), lay}
	routeSets := []map[string]extract.Route{nil, routes, {"d": {Layer: -1, Length: math.MinInt64, NWires: 0}}}
	if len(primlib.Kinds()) == 0 {
		t.Fatal("no registered primitive kinds")
	}
	for _, kind := range primlib.Kinds() {
		e, err := primlib.Lookup(context.Background(), kind)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range floats {
			// Rotate the values through the fields so each field
			// sees each value.
			f := func(k int) float64 { return floats[(i+k)%len(floats)] }
			n := ints[i%len(ints)]
			sz := primlib.Sizing{TotalFins: int(n), L: ints[(i+1)%len(ints)], RatioB: i - 3, NominalI: v}
			bias := primlib.Bias{Vdd: f(1), VCM: f(2), VD: f(3), ITail: f(4), CLoad: f(5), VCtrl: f(6), VCasc: f(7)}
			for li, l := range layouts {
				if l != nil {
					l.Config.Pattern = cellgen.PatternKind(i % 5)
					l.Config.Dummies = int(n)
				}
				pre := NewKeyPrefix(testFP, e, sz, bias)
				for _, r := range routeSets {
					got := Key(testFP, e, sz, bias, l, r)
					if want := fmtKey(testFP, e, sz, bias, l, r); got != want {
						t.Fatalf("%s, value %d, layout %d: key differs from the fmt rendering:\n got %s\nwant %s", kind, i, li, got, want)
					}
					if fromPre := pre.Key(l, r); fromPre != got {
						t.Fatalf("%s, value %d, layout %d: key from its prefix differs:\n got %s\nwant %s", kind, i, li, fromPre, got)
					}
				}
			}
		}
	}
}

// TestKeyAllocs guards the key's cost. A warm request builds hundreds
// of keys, so neither fingerprinting the PDK per key (67 allocations)
// nor fmt rendering (about 16) may come back, and a key built from
// its primitive's prefix allocates no prefix of its own. The wire
// names and ports are sorted in stack buffers, so a routed layout key
// allocates only its string.
func TestKeyAllocs(t *testing.T) {
	lay, routes := routedInverter()
	sz := primlib.Sizing{TotalFins: 16, L: 14}
	bias := primlib.Bias{Vdd: 0.8, CLoad: 6e-15, VCtrl: 0.6}
	pre := NewKeyPrefix(testFP, primlib.CSInverter, sz, bias)
	for name, key := range map[string]func() string{
		"Key":           func() string { return Key(testFP, primlib.CSInverter, sz, bias, lay, routes) },
		"KeyPrefix.Key": func() string { return pre.Key(lay, routes) },
	} {
		if allocs := testing.AllocsPerRun(100, func() { _ = key() }); allocs > 1 {
			t.Errorf("%s: a routed layout key allocates %v times, want at most 1", name, allocs)
		}
	}
}

// evalNetlist is a small literal netlist in which every field the
// netlist key reads is set: a source with a waveform, a resistor and
// a transistor.
func evalNetlist() *circuit.Netlist {
	nl := circuit.New("probe")
	nl.MustAdd(&circuit.Device{Name: "vin", Type: circuit.VSource, Nets: []string{"in", "0"}, DC: 0.4,
		Wave: &circuit.SourceWave{Kind: "pwl", Args: []float64{0.1}, Times: []float64{0, 1e-9}, Vals: []float64{0, 0.8}}})
	nl.MustAdd(&circuit.Device{Name: "r1", Type: circuit.Resistor, Nets: []string{"in", "g"}, Value: 1e3})
	nl.MustAdd(&circuit.Device{Name: "m1", Type: circuit.NMOS, Nets: []string{"out", "g", "0", "0"},
		MOS: circuit.MOS{NFin: 4, NF: 2, M: 1, L: 14}})
	return nl
}

// TestNetlistKeyGolden pins the evaluation key's bytes, which index
// the disk tier like Key's: a change that moves a byte needs a
// SchemaVersion bump. Like TestKeyGolden's strings, this one embeds
// pdk.Default()'s fingerprint.
func TestNetlistKeyGolden(t *testing.T) {
	const want = "v3|pdk=dc9248e7b74b4e25|eval=csamp|nl=d572c9a2c2f91250b02a6fa191ff2d1fdac1590d9f52ee02bb440eaa34a673d5"
	if got := NetlistKey(testFP, "csamp", evalNetlist()); got != want {
		t.Errorf("netlist key:\n got %s\nwant %s", got, want)
	}
}

// TestNetlistKeySeesEveryField changes each field the evaluation
// reads, one at a time, and checks that the key moves with it: a
// field the key skipped would serve one netlist's metrics for
// another. Netlists built separately with equal content share a key.
func TestNetlistKeySeesEveryField(t *testing.T) {
	ref := NetlistKey(testFP, "csamp", evalNetlist())
	if got := NetlistKey(testFP, "csamp", evalNetlist()); got != ref {
		t.Fatalf("equal netlists built separately have keys %s and %s", ref, got)
	}
	for what, change := range map[string]func(nl *circuit.Netlist){
		"value by one ulp": func(nl *circuit.Netlist) {
			r := nl.Device("r1")
			r.Value = math.Nextafter(r.Value, math.Inf(1))
		},
		"extraction values": func(nl *circuit.Netlist) { nl.Device("m1").MOS.Extracted = true },
		"AC drive":          func(nl *circuit.Netlist) { nl.Device("vin").ACMag = 1 },
		"net":               func(nl *circuit.Netlist) { nl.Device("r1").Nets[1] = "g2" },
		"device name":       func(nl *circuit.Netlist) { nl.Device("r1").Name = "r2" },
		"device type":       func(nl *circuit.Netlist) { nl.Device("r1").Type = circuit.Capacitor },
		"device order": func(nl *circuit.Netlist) {
			nl.Devices[1], nl.Devices[2] = nl.Devices[2], nl.Devices[1]
		},
		"wave kind":  func(nl *circuit.Netlist) { nl.Device("vin").Wave.Kind = "pulse" },
		"wave args":  func(nl *circuit.Netlist) { nl.Device("vin").Wave.Args[0] = 0.2 },
		"wave times": func(nl *circuit.Netlist) { nl.Device("vin").Wave.Times[1] = 2e-9 },
		"wave vals":  func(nl *circuit.Netlist) { nl.Device("vin").Wave.Vals[1] = 0.7 },
		"no wave":    func(nl *circuit.Netlist) { nl.Device("vin").Wave = nil },
	} {
		nl := evalNetlist()
		change(nl)
		if NetlistKey(testFP, "csamp", nl) == ref {
			t.Errorf("%s: key unchanged", what)
		}
	}
	if NetlistKey(testFP, "ota5t", evalNetlist()) == ref {
		t.Error("benchmark name: key unchanged")
	}
	other := pdk.Default()
	other.GateL++
	if NetlistKey(other.Fingerprint(), "csamp", evalNetlist()) == ref {
		t.Error("PDK fingerprint: key unchanged")
	}
}
