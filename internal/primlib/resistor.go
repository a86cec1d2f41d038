package primlib

import (
	"fmt"
	"math"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/pdk"
)

// The poly resistor primitive (passives class). Sizing.TotalFins
// counts resistor squares; the layout options fold the serpentine
// into different aspect ratios, trading the body's footprint (and so
// its parasitic capacitance) against terminal lead length. Metrics:
// the resistance itself (α = 1) and the parasitic capacitance
// (α = 0.1), with RC at the terminals as the tuning knob.
var PolyResistor = register(&Entry{
	Kind:        "polyres",
	Description: "precision poly resistor",
	Family:      "res",
	MOSType:     circuit.NMOS, // unused; passives have no devices
	Structure:   cellgen.Single,
	Metrics: []MetricSpec{
		{Name: "R", Weight: cost.WeightHigh},
		{Name: "Cpar", Weight: cost.WeightLow},
	},
	Tuning: []TuningTerm{
		{Name: "top", Wires: []string{"d"}},
		{Name: "bottom", Wires: []string{"s"}},
	},
	Ports: []PortSpec{{Name: "top", Wire: "d"}, {Name: "bottom", Wire: "s"}},
})

// resDesignR returns the design resistance for the sizing.
func resDesignR(t *pdk.Tech, sz Sizing) float64 {
	squares := float64(sz.TotalFins)
	if squares < 1 {
		squares = 1
	}
	return t.PolySheetRes * squares
}

// resNominalLeadC is the designer's lead-capacitance budget included
// in the schematic reference (the body capacitance of a precision
// resistor is tiny; without a lead budget any real wiring would read
// as a huge relative deviation).
const resNominalLeadC = 0.5e-15

// resBodyC returns the body parasitic capacitance of a layout (or the
// nominal-footprint estimate for the schematic).
func resBodyC(t *pdk.Tech, lay *cellgen.Layout, sz Sizing) float64 {
	if lay != nil {
		return t.PolyCapDens * float64(lay.BBox.Area())
	}
	return t.PolyCapDens * float64(sz.TotalFins) * capUnitArea
}

// evalRes measures the end-to-end resistance (poly body plus the
// extracted lead resistance) and the total parasitic capacitance.
func evalRes(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, ex *extract.Extracted,
	routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	var lay *cellgen.Layout
	if ex != nil {
		lay = ex.Layout
	}
	rNom := resDesignR(t, sz)
	cBody := resBodyC(t, lay, sz)

	// Testbench 1: resistance — 1 mA forced through the terminals.
	b := newTB(t, "polyres r testbench", ex, routes)
	b.resistor("rmain", b.dev("d"), b.dev("s"), g6(rNom))
	b.resistor("rtb", b.outer("s"), "0", 1e-3)
	b.isrc("ix", "0", b.outer("d"), 1e-3)
	b.op()
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("polyres r testbench: %w", err)
	}
	ev.Sims++
	var v float64
	if ex != nil {
		v = res.OP.Volt("e_d")
		if v == 0 {
			v = res.OP.Volt("p_d")
		}
	} else {
		v = res.OP.Volt("p_d")
	}
	ev.Values["R"] = v / 1e-3

	// Testbench 2: parasitic capacitance — both terminals tied and
	// driven; the body and wire capacitance to ground answers.
	b = newTB(t, "polyres c testbench", ex, routes)
	b.resistor("rmain", b.dev("d"), b.dev("s"), g6(rNom))
	b.capacitor("cbody", b.dev("d"), "0", g6(cBody/2))
	b.capacitor("cbody2", b.dev("s"), "0", g6(cBody/2))
	b.resistor("rtie", b.outer("d"), b.outer("s"), 1e-3)
	b.isrc("ix", "0", b.outer("d"), 0).ac(1)
	b.resistor("rbig", b.outer("d"), "0", 1e9)
	b.acSweep(5, 1e6, 1e8)
	b.find("vre", "vr("+b.outer("d")+")", fCap)
	b.find("vim", "vi("+b.outer("d")+")", fCap)
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("polyres c testbench: %w", err)
	}
	ev.Sims++
	c, err := capFromVrVi(res.Measures["vre"], res.Measures["vim"])
	if err != nil {
		return nil, fmt.Errorf("polyres c testbench: %w", err)
	}
	ev.Values["Cpar"] = c
	_ = math.Pi
	return ev, nil
}

// resSchematicEval is the schematic reference for the resistor.
func resSchematicEval(t *pdk.Tech, sz Sizing) *Eval {
	return &Eval{Values: map[string]float64{
		"R":    resDesignR(t, sz),
		"Cpar": resBodyC(t, nil, sz) + resNominalLeadC,
	}}
}
