package spice

import (
	"context"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/obs"
)

// builtDivider builds an RC divider deck in memory, as the primitive
// testbenches build theirs.
func builtDivider() *Deck {
	nl := circuit.New("deck")
	v := &circuit.Device{Name: "V1", Type: circuit.VSource, Nets: []string{"in", "0"}}
	v.DC = 1
	v.ACMag = 1
	nl.MustAdd(v)
	r := &circuit.Device{Name: "R1", Type: circuit.Resistor, Nets: []string{"in", "out"}}
	r.Value = 1e3
	nl.MustAdd(r)
	c := &circuit.Device{Name: "C1", Type: circuit.Capacitor, Nets: []string{"out", "0"}}
	c.Value = 1e-12
	nl.MustAdd(c)
	return &Deck{
		Title:    "divider",
		Netlist:  nl,
		Analyses: []Analysis{{Kind: "op"}, {Kind: "ac", FStart: 1e6, FStop: 1e9, Points: 5}},
		Measures: []Measure{{Analysis: "ac", Name: "g", Kind: "find", Expr: "vm(out)", At: 1e7}},
	}
}

// TestRunCountsDuplicateDecks covers spice.duplicate_decks on the deck
// digest: a repeat counts within one trace only, and any change of
// content, however small, is a different deck.
func TestRunCountsDuplicateDecks(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("a process-wide trace is installed")
	}
	solve := func(ctx context.Context, d *Deck) {
		t.Helper()
		if _, err := Run(ctx, tech, d); err != nil {
			t.Fatal(err)
		}
	}
	traced := func() (context.Context, func(decks, dups int64)) {
		tr := obs.New()
		return obs.With(context.Background(), tr), func(decks, dups int64) {
			t.Helper()
			if d, u := tr.Counter("spice.decks").Value(), tr.Counter("spice.duplicate_decks").Value(); d != decks || u != dups {
				t.Errorf("%d decks, %d duplicates; want %d, %d", d, u, decks, dups)
			}
		}
	}

	// The same built deck solved twice on one trace.
	ctx, want := traced()
	d := builtDivider()
	solve(ctx, d)
	solve(ctx, d)
	want(2, 1)

	// A second trace shares nothing with the first.
	ctx, want = traced()
	solve(ctx, builtDivider())
	want(1, 0)

	// One ulp in one parameter, another title, another analysis.
	for name, change := range map[string]func(*Deck){
		"one ulp": func(d *Deck) {
			r := d.Netlist.Device("r1")
			r.Value = math.Nextafter(r.Value, math.Inf(1))
		},
		"title":    func(d *Deck) { d.Title = "divider 2" },
		"analysis": func(d *Deck) { d.Analyses[1].Points = 10 },
		"ac grid":  func(d *Deck) { d.Analyses[1].Lin = true },
	} {
		t.Run(name, func(t *testing.T) {
			ctx, want := traced()
			other := builtDivider()
			change(other)
			solve(ctx, builtDivider())
			solve(ctx, other)
			want(2, 0)
		})
	}

	// A nil trace counts nothing and remembers nothing.
	solve(context.Background(), builtDivider())
	solve(context.Background(), builtDivider())
	ctx, want = traced()
	solve(ctx, builtDivider())
	want(1, 0)

	// RunSourceCtx counts through the same digest: text, then the deck
	// it parses to.
	const src = "* divider\nV1 in 0 DC 1 AC 1\nR1 in out 1k\nC1 out 0 1p\n.op\n.ac dec 5 1meg 1g\n"
	ctx, want = traced()
	if _, _, err := RunSourceCtx(ctx, tech, src); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	solve(ctx, parsed)
	want(2, 1)
}

// TestDigestSeesEveryField changes each field of a deck's analyses and
// measures, and each part of a device, one at a time, and checks that
// the digest changes with it: a field the digest skipped would count
// two different decks as duplicates.
func TestDigestSeesEveryField(t *testing.T) {
	base := func() *Deck {
		d := builtDivider()
		d.Analyses = append(d.Analyses, Analysis{Kind: "tran", TStep: 1e-12, TStop: 1e-9, Src: "v1", Start: 1, Stop: 2, Step: 0.5})
		d.Measures = append(d.Measures, Measure{Analysis: "tran", Name: "t", Kind: "trigtarg",
			TrigExpr: "v(in)", TrigVal: 0.5, TrigEdge: Edge{"rise", 1},
			TargExpr: "v(out)", TargVal: 0.5, TargEdge: Edge{"fall", 1},
			Edge: Edge{"cross", 1}, WhenVal: 0.1, From: 1e-12, To: 1e-9})
		d.ICs = map[string]float64{"out": 0.25}
		v := d.Netlist.Device("v1")
		v.Wave = &circuit.SourceWave{Kind: "pulse", Args: []float64{0, 1}}
		return d
	}
	ref := base().digest()
	if base().digest() != ref {
		t.Fatal("digest is not deterministic")
	}
	differs := func(what string, change func(*Deck)) {
		t.Helper()
		d := base()
		change(d)
		if d.digest() == ref {
			t.Errorf("%s: digest unchanged", what)
		}
	}
	for _, list := range []string{"Analyses", "Measures"} {
		n := reflect.ValueOf(base()).Elem().FieldByName(list).Index(0).NumField()
		for f := 0; f < n; f++ {
			for i := 0; i < 2; i++ {
				differs(list, func(d *Deck) {
					perturb(t, reflect.ValueOf(d).Elem().FieldByName(list).Index(i).Field(f))
				})
			}
		}
	}
	differs("title", func(d *Deck) { d.Title += "x" })
	differs("device name", func(d *Deck) { d.Netlist.Device("r1").Name = "R2" })
	differs("device type", func(d *Deck) { d.Netlist.Device("r1").Type = circuit.Capacitor })
	differs("device net", func(d *Deck) { d.Netlist.Device("r1").Nets[1] = "mid" })
	differs("device order", func(d *Deck) {
		devs := d.Netlist.Devices
		devs[1], devs[2] = devs[2], devs[1]
	})
	differs("param key", func(d *Deck) {
		v := d.Netlist.Device("v1")
		v.ACMag, v.ACPhase = 0, 1
	})
	differs("param value", func(d *Deck) { d.Netlist.Device("c1").Value = 2e-12 })
	differs("negative zero", func(d *Deck) { d.Netlist.Device("v1").DC = math.Copysign(0, -1) })
	differs("wave kind", func(d *Deck) { d.Netlist.Device("v1").Wave.Kind = "pwl" })
	differs("wave args", func(d *Deck) { d.Netlist.Device("v1").Wave.Args[1] = 2 })
	differs("wave times", func(d *Deck) { d.Netlist.Device("v1").Wave.Times = []float64{0} })
	differs("wave vals", func(d *Deck) { d.Netlist.Device("v1").Wave.Vals = []float64{0} })
	differs("no wave", func(d *Deck) { d.Netlist.Device("v1").Wave = nil })
	differs("ic value", func(d *Deck) { d.ICs["out"] = 0.5 })
	differs("ic net", func(d *Deck) { d.ICs = map[string]float64{"in": 0.25} })
	differs("no measures", func(d *Deck) { d.Measures = nil })
	differs("string boundary", func(d *Deck) {
		d.Measures[0].Analysis, d.Measures[0].Name = "acg", ""
	})
}

// perturb changes one field value of an analysis or measure.
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Struct: // Edge
		v.Field(1).SetInt(v.Field(1).Int() + 1)
	default:
		t.Fatalf("no perturbation for %v", v.Type())
	}
}

// TestNetlistDigestGolden pins the bytes hashDevices walks, through
// NetlistDigest, for a netlist that holds every kind of value: a MOS
// without and with the extraction's values, R, C, L, E and G, sources
// without AC, with an AC magnitude and with magnitude and phase, and
// each wave kind. The digest keys the evaluation cache's entries
// (evcache.NetlistKey), on disk too, so a change that moves it needs
// an evcache.SchemaVersion bump. The value was computed when device
// values were still a map of parameters by name.
func TestNetlistDigestGolden(t *testing.T) {
	const want = "e9c3a89f059a38572583dad3874642d4304c3d576b6fb0c06d95be8417623bca"
	nl := circuit.NewBuilder("kinds").
		MOS("mn", circuit.NMOS, "d", "g", "0", "0", 8, 4, 2, 14).
		MOS("Mp", circuit.PMOS, "d", "g", "vdd", "vdd", 4, 2, 1, 16).
		R("r1", "d", "o", 1.5e3).
		C("C1", "o", "0", 2e-15).
		L("l1", "o", "x", 1e-9).
		E("e1", "y", "0", "x", "0", -3).
		G("g1", "y", "0", "x", "0", 2e-3).
		V("vdd", "vdd", "0", 0.8).
		VAC("vg", "g", "0", 0.45, 0.5).
		I("ib", "0", "x", 1e-5).
		VPulse("vclk", "c", "0", 0, 0.8, 1e-10, 1e-11, 2e-11, 5e-10, 1e-9).
		VSin("vs", "s", "0", 0.4, 0.1, 1e9).
		VPWL("vw", "w", "0", []float64{0, 1e-9, 2e-9}, []float64{0, 0.8, 0.3}).
		Netlist()
	m := &nl.Device("mp").MOS
	m.Extracted = true
	m.DVth, m.DMu, m.AD, m.AS, m.PD, m.PS = 0.0123, 0.987, 1.2e4, 1.3e4, 910, 920
	ib := nl.Device("ib")
	ib.ACMag, ib.ACPhase = 1, 180
	if d := NetlistDigest(nl); hex.EncodeToString(d[:]) != want {
		t.Errorf("NetlistDigest = %x, want %s", d, want)
	}
}
