package primlib

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/extract"
	"primopt/internal/spice"
)

// readDeckCorpus reads testdata/testbench_decks.sp: the SPICE text of
// every deck the evaluators of 2a7b8d9 rendered for deckCases, when
// testbenches were still printed and parsed back. A "** case <name>"
// line opens a case and ".end" closes each deck; the decks of a case
// are in the order they were solved.
func readDeckCorpus(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile("testdata/testbench_decks.sp")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	var name string
	var deck strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "** case "):
			name = strings.TrimSpace(strings.TrimPrefix(line, "** case "))
		case line == ".end\n":
			out[name] = append(out[name], deck.String())
			deck.Reset()
		case name != "":
			deck.WriteString(line)
		}
	}
	return out
}

// TestTestbenchDecksMatchTheirText checks that every evaluator family
// builds, in memory, the decks it used to print and parse back: for
// each case of deckCases, the decks the evaluation solves, in order,
// equal ParseDeck of the corpus's texts field by field, with floats
// compared by their bits. The title is the one field ParseDeck does
// not fill, because the text carried it as a "* " comment line.
func TestTestbenchDecksMatchTheirText(t *testing.T) {
	ctx := context.Background()
	corpus := readDeckCorpus(t)
	cases := deckCases(t, tech)
	if len(cases) != len(corpus) {
		t.Errorf("%d cases, %d in the corpus", len(cases), len(corpus))
	}
	compared := 0
	for _, c := range cases {
		texts, ok := corpus[c.name]
		if !ok {
			t.Errorf("%s: not in the corpus", c.name)
			continue
		}
		var solved []*spice.Deck
		record := func(d *spice.Deck) (*spice.Results, error) {
			solved = append(solved, d)
			return spice.Run(ctx, tech, d)
		}
		ev, err := c.entry.evaluate(record, tech, c.sz, c.entry.TestbenchBias(c.bias), c.ex, c.routes)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(solved) != len(texts) || ev.Sims != len(solved) {
			t.Errorf("%s: solved %d decks (Sims %d), the corpus has %d", c.name, len(solved), ev.Sims, len(texts))
			continue
		}
		for i, text := range texts {
			want, err := spice.ParseDeck(text)
			if err != nil {
				t.Fatalf("%s deck %d: %v", c.name, i, err)
			}
			title, _, _ := strings.Cut(text, "\n")
			want.Title = strings.TrimPrefix(title, "* ")
			if diff := deckDiff("deck", reflect.ValueOf(want), reflect.ValueOf(solved[i])); diff != "" {
				t.Errorf("%s deck %d (%s): %s", c.name, i, want.Title, diff)
			}
			// The net set, whose order numbers the solver's nodes.
			if diff := deckDiff("nets", reflect.ValueOf(want.Netlist.Nets()), reflect.ValueOf(solved[i].Netlist.Nets())); diff != "" {
				t.Errorf("%s deck %d (%s): %s", c.name, i, want.Title, diff)
			}
			compared++
		}
	}
	t.Logf("%d decks compared", compared)
}

// deckDiff returns the path and values of the first difference between
// two deck values, or "". Floats compare by their bits; nil and empty
// slices and maps are equal. Unexported fields, a netlist's index of
// its devices and nets, are skipped: a built deck's index shares its
// circuit's, and what the index answers is compared on its own.
func deckDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %t vs %t", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return deckDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !a.Type().Field(i).IsExported() {
				continue
			}
			if d := deckDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := deckDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d keys vs %d", path, a.Len(), b.Len())
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s: key %q missing", path, k.String())
			}
			if d := deckDiff(fmt.Sprintf("%s[%q]", path, k.String()), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %.17g vs %.17g", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %t vs %t", path, a.Bool(), b.Bool())
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %v", path, a.Kind())
	}
	return ""
}

// TestEvaluationBuildsItsCircuitOnce checks that an evaluation adds its
// family's circuit to a netlist once: in every deck case, each deck
// the evaluation solves opens with the circuit's devices, the same
// pointers, and the devices after them are that deck's own. The
// passives have no circuit, so none of their devices is shared.
func TestEvaluationBuildsItsCircuitOnce(t *testing.T) {
	ctx := context.Background()
	for _, c := range deckCases(t, tech) {
		var solved []*spice.Deck
		record := func(d *spice.Deck) (*spice.Results, error) {
			solved = append(solved, d)
			return spice.Run(ctx, tech, d)
		}
		v := c.entry.newEvaluation(record, tech, c.sz, c.entry.TestbenchBias(c.bias), c.ex, c.routes)
		if err := c.entry.Family.eval(v); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var shared []*circuit.Device
		if v.circuit != nil {
			shared = v.circuit.deck.Netlist.Devices
		}
		if (len(shared) == 0) != (c.entry.Family.circuit == nil) {
			t.Errorf("%s: a circuit of %d devices", c.name, len(shared))
		}
		owner := map[*circuit.Device]int{}
		for i, d := range solved {
			devs := d.Netlist.Devices
			if len(devs) <= len(shared) {
				t.Fatalf("%s deck %d: %d devices, the circuit has %d", c.name, i, len(devs), len(shared))
			}
			for k, dev := range shared {
				if devs[k] != dev {
					t.Errorf("%s deck %d: device %d (%s) is not the circuit's", c.name, i, k, devs[k].Name)
				}
			}
			for _, dev := range devs[len(shared):] {
				if j, ok := owner[dev]; ok {
					t.Errorf("%s deck %d: %s is deck %d's too", c.name, i, dev.Name, j)
				}
				owner[dev] = i
			}
		}
	}
}

// TestTestbenchWireEmittedOnce checks the once-per-terminal rule on a
// built deck: a wire reached through dev and port alike gets one
// π-section.
func TestTestbenchWireEmittedOnce(t *testing.T) {
	sz := dpSizing()
	ex := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	b := newTB(tech, "wire check", ex, nil)
	b.mos("a", DiffPair, sz, 0, ex.Layout.Config, b.dev("d_a"), b.dev("g_a"), b.dev("s_a"), "0")
	b.mos("b", DiffPair, sz, 1, ex.Layout.Config, b.dev("d_b"), b.dev("g_b"), b.dev("s_b"), "0")
	b.resistor("rtsa", b.port("s_a"), b.dev("s"), 1e-3)
	b.resistor("rtsb", b.port("s_b"), b.dev("s"), 1e-3)
	b.isrc("ita", b.outer("s"), "0", 1e-4)
	if b.err != nil {
		t.Fatal(b.err)
	}
	n := 0
	for _, d := range b.deck.Netlist.Devices {
		if d.Name == "Rw_s_a" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("s_a wire emitted %d times", n)
	}
}

// TestTestbenchBuildErrors checks that a deck that could not have been
// printed as parseable text fails its build, and is not solved: a
// non-finite value, and a device name used twice. A failed build of
// the circuit an evaluation's decks share reads as its first deck's.
func TestTestbenchBuildErrors(t *testing.T) {
	solve := func(*spice.Deck) (*spice.Results, error) {
		t.Fatal("a deck that failed to build was solved")
		return nil, nil
	}
	for name, build := range map[string]func(*tb){
		"NaN value":      func(b *tb) { b.resistor("r1", "a", "0", g6(math.NaN())) },
		"infinite value": func(b *tb) { b.vsrc("v1", "a", "0", math.Inf(-1)) },
		"duplicate name": func(b *tb) {
			b.resistor("r1", "a", "0", 1)
			b.resistor("R1", "a", "0", 1)
		},
	} {
		b := newTB(tech, "error check", nil, nil)
		build(b)
		if _, err := solver(solve).run(b); err == nil {
			t.Errorf("%s: built", name)
		}
	}

	// A circuit that fails to build stops the evaluation at its first
	// deck, under whose title it was built.
	_, err := CSInverter.evaluate(solve, tech, Sizing{TotalFins: 16, L: 14}, Bias{Vdd: math.NaN()}, nil, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "csinv delay testbench: primlib: csinv delay testbench: vdd dc") {
		t.Errorf("a circuit with a NaN supply: %v", err)
	}
}

var errStopAfterBuild = errors.New("stop after build")

// TestTestbenchBuildAllocs bounds the allocations of building, not
// solving, a whole diffpair evaluation of a layout with one route, up
// to its third deck: a stub solver answers the Gm and Ctotal decks
// with canned measures and stops the evaluation at the offset deck.
// Each deck once re-emitted every device, wire and route of the
// layout, which took 752 allocations to reach that deck. Building the
// evaluation's circuit once and starting each deck from it took 360,
// and typed device values and a name and net index that each deck
// shares with the circuit take 240. The bound keeps both out.
func TestTestbenchBuildAllocs(t *testing.T) {
	sz := dpSizing()
	ex := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	routes := map[string]extract.Route{"d_a": {Layer: 2, Length: 2000, NWires: 2, Vias: 2}}
	canned := map[string]*spice.Results{
		"dp gm testbench":     {Measures: map[string]float64{"gmhalf": 1e-3}},
		"dp ctotal testbench": {Measures: map[string]float64{"vre": 1, "vim": -1}},
	}
	var built *spice.Deck
	stub := func(d *spice.Deck) (*spice.Results, error) {
		if res, ok := canned[d.Title]; ok {
			return res, nil
		}
		built = d
		return nil, errStopAfterBuild
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DiffPair.evaluate(stub, tech, sz, dpBias(), ex, routes); !errors.Is(err, errStopAfterBuild) {
			t.Fatal(err)
		}
	})
	if built == nil || built.Title != "dp offset testbench" || built.Netlist.Device("Rr_d_a") == nil {
		t.Fatalf("stopped at the wrong deck: %+v", built)
	}
	const bound = 264
	t.Logf("%.0f allocations", allocs)
	if allocs > bound {
		t.Errorf("building the evaluation up to its offset deck took %.0f allocations, bound %d", allocs, bound)
	}
}

// TestEngineBuildAllocs bounds the allocations of compiling one routed
// diffpair deck, its offset testbench, into a solver (spice.New): the
// engine numbers nodes from the netlist's shared sorted net set and
// sizes its element lists once, with no map of names: 16 allocations.
// It took 50 when each engine built a name-to-node map and a branch
// map from a net set the netlist collected and sorted afresh.
func TestEngineBuildAllocs(t *testing.T) {
	sz := dpSizing()
	ex := extractCfg(t, DiffPair, sz, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	routes := map[string]extract.Route{"d_a": {Layer: 2, Length: 2000, NWires: 2, Vias: 2}}
	var deck *spice.Deck
	capture := func(d *spice.Deck) (*spice.Results, error) {
		if d.Title == "dp offset testbench" {
			deck = d
		}
		return spice.Run(context.Background(), tech, d)
	}
	if _, err := DiffPair.evaluate(capture, tech, sz, dpBias(), ex, routes); err != nil {
		t.Fatal(err)
	}
	if deck == nil || deck.Netlist.Device("Rr_d_a") == nil {
		t.Fatal("no routed offset deck")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := spice.New(ctx, tech, deck.Netlist); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 18
	t.Logf("%.0f allocations", allocs)
	if allocs > bound {
		t.Errorf("compiling the offset deck took %.0f allocations, bound %d", allocs, bound)
	}
}
