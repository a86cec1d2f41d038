package primlib

import (
	"context"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/extract"
	"primopt/internal/pdk"
)

// deckCase is one evaluation whose testbench decks are pinned in
// testdata/testbench_decks.sp: a registered kind in the schematic view
// (ex == nil) or in a layout view whose port wires carry global routes.
type deckCase struct {
	name   string // "<kind> <view>", the case's header in the corpus
	entry  *Entry
	sz     Sizing
	bias   Bias
	ex     *extract.Extracted
	routes map[string]extract.Route
}

// deckCaseBias has every field nonzero, CLoad included, and carries
// more digits than the testbenches print, so that a value rounded to
// the wrong precision changes bits.
var deckCaseBias = Bias{
	Vdd: 0.8123456789012, VCM: 0.4512345678901, VD: 0.4098765432123,
	ITail: 1.0123456789e-4, CLoad: 5.123456789e-15, VCtrl: 0.6123456789, VCasc: 0.6212345678,
}

// deckCases returns every registered kind in the schematic view (the
// passives have no schematic testbench) and in the view of its first
// layout. The schematic view sizes L at 15 nm, whose gate length the
// deck text does not round-trip; the layouts use the PDK's 14 nm. In
// the layout view each port wire gets a route with its own wire count,
// so the decks hold excitations both past a route and at a bare port.
func deckCases(t testing.TB, tech *pdk.Tech) []deckCase {
	t.Helper()
	ctx := context.Background()
	var out []deckCase
	for _, kind := range Kinds() {
		e := registry[kind]
		sz := Sizing{TotalFins: 240, L: 14}
		cons := &cellgen.Constraints{MinNFin: 4, MaxNFin: 16, MaxM: 4}
		switch e.Family.Name {
		case "cmirror":
			sz.RatioB = 2
		case "csinv":
			sz.TotalFins = 16
		case "cap":
			sz.TotalFins = 2560
			cons = &cellgen.Constraints{MinNFin: 8, MaxNFin: 32}
		case "res":
			sz.TotalFins = 50
		}
		if e.Family.Name != "cap" && e.Family.Name != "res" {
			sch := sz
			sch.L = 15
			out = append(out, deckCase{name: kind + " schematic", entry: e, sz: sch, bias: deckCaseBias})
		}
		lays, err := e.FindLayouts(ctx, tech, sz, cons)
		if err != nil || len(lays) == 0 {
			t.Fatalf("%s layouts: %v (%d)", kind, err, len(lays))
		}
		ex, err := extract.Primitive(ctx, tech, lays[0])
		if err != nil {
			t.Fatalf("%s extract: %v", kind, err)
		}
		routes := map[string]extract.Route{}
		for i, p := range e.Ports {
			routes[p.Wire] = extract.Route{Layer: pdk.Layer(2), Length: 1500 + 250*int64(i), NWires: i + 1, Vias: 2}
		}
		out = append(out, deckCase{name: kind + " layout", entry: e, sz: sz, bias: deckCaseBias, ex: ex, routes: routes})
	}
	return out
}
