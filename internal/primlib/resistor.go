package primlib

import (
	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/cost"
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
	Family:      resFamily,
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

var resFamily = &Family{Name: "res", eval: (*evaluation).polyres, bias: noBias}

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

// polyres measures the end-to-end resistance (poly body plus the
// extracted lead resistance) and the total parasitic capacitance. Its
// schematic reference is the design R with the body's nominal
// footprint capacitance and the lead budget.
func (v *evaluation) polyres() error {
	rNom := resDesignR(v.t, v.sz)
	if v.ex == nil {
		v.Values["R"] = rNom
		v.Values["Cpar"] = resBodyC(v.t, nil, v.sz) + resNominalLeadC
		return nil
	}
	cBody := resBodyC(v.t, v.ex.Layout, v.sz)

	// Testbench 1: resistance — 1 mA forced through the terminals.
	b := v.deck("polyres r testbench")
	b.resistor("rmain", b.dev("d"), b.dev("s"), g6(rNom))
	b.resistor("rtb", b.outer("s"), "0", 1e-3)
	b.isrc("ix", "0", b.outer("d"), 1e-3)
	b.op()
	res, err := v.solve(b)
	if err != nil {
		return err
	}
	v.Values["R"] = res.OP.Volt(b.outer("d")) / 1e-3

	// Testbench 2: parasitic capacitance — both terminals tied and
	// driven; the body and wire capacitance to ground answers.
	b = v.deck("polyres c testbench")
	b.resistor("rmain", b.dev("d"), b.dev("s"), g6(rNom))
	b.capacitor("cbody", b.dev("d"), "0", g6(cBody/2))
	b.capacitor("cbody2", b.dev("s"), "0", g6(cBody/2))
	b.resistor("rtie", b.outer("d"), b.outer("s"), 1e-3)
	b.isrc("ix", "0", b.outer("d"), 0).ac(1)
	b.resistor("rbig", b.outer("d"), "0", 1e9)
	b.measureC(b.outer("d"))
	res, err = v.solve(b)
	if err != nil {
		return err
	}
	c, err := b.capOf(res)
	if err != nil {
		return err
	}
	v.Values["Cpar"] = c
	return nil
}
