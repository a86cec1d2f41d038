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

// The capacitor primitive (the paper's passives class, Table II:
// C with α=1, frequency with α=0.1, tuning = RC at the terminals). A
// metal-oxide-metal finger capacitor's value is set by its area; the
// layout options trade aspect ratio against terminal wire resistance,
// which sets the usable frequency (the RC corner of the cap seen
// through its own leads). Sizing.TotalFins counts cap units (finger
// groups); Bias carries no DC information for passives.
var Capacitor = register(&Entry{
	Kind:        "momcap",
	Description: "metal-oxide-metal finger capacitor",
	Family:      "cap",
	MOSType:     circuit.NMOS, // unused; passives have no devices
	Structure:   cellgen.Single,
	Metrics: []MetricSpec{
		{Name: "C", Weight: cost.WeightHigh},
		{Name: "frequency", Weight: cost.WeightLow},
	},
	Tuning: []TuningTerm{
		{Name: "top", Wires: []string{"d"}},
		{Name: "bottom", Wires: []string{"s"}},
	},
	Ports: []PortSpec{{Name: "top", Wire: "d"}, {Name: "bottom", Wire: "s"}},
})

// MOM capacitance density, F per nm^2 of cap area (≈ 0.35 fF/µm²,
// a typical lateral-fringe stack value).
const momDensity = 0.35e-21

// capNominalR is the designer's terminal-resistance budget used as
// the schematic reference for the frequency metric (the paper's
// schematic has ideal leads; a deviation reference needs a finite
// budget).
const capNominalR = 25.0

// capUnitArea is the nominal footprint per capacitor unit, nm^2.
const capUnitArea = 4800

// capDesignC returns the design capacitance for a layout or sizing.
func capDesignC(lay *cellgen.Layout, sz Sizing) float64 {
	if lay != nil {
		return momDensity * float64(lay.BBox.Area())
	}
	// Schematic: the nominal per-unit footprint (grid pitch product
	// plus typical overhead amortization), so schematic and layout
	// agree on C to within the layout's area overhead.
	return momDensity * float64(sz.TotalFins) * capUnitArea
}

// evalCap measures the effective capacitance between the terminals
// through the extracted lead RC, and the usable frequency (the RC
// corner of the total lead resistance against the cap).
func evalCap(s solver, e *Entry, t *pdk.Tech, sz Sizing, bias Bias, ex *extract.Extracted,
	routes map[string]extract.Route) (*Eval, error) {
	ev := &Eval{Values: make(map[string]float64)}
	var lay *cellgen.Layout
	if ex != nil {
		lay = ex.Layout
	}
	cNom := capDesignC(lay, sz)
	if cNom <= 0 {
		return nil, fmt.Errorf("momcap: non-positive design capacitance")
	}

	// Testbench 1: effective C — AC current into the top terminal
	// with the bottom grounded, read from Im(Y) at a frequency low
	// enough that the lead R is invisible.
	b := newTB(t, "momcap c testbench", ex, routes)
	b.capacitor("cmain", b.dev("d"), b.dev("s"), g6(cNom))
	b.resistor("rtb", b.outer("s"), "0", 1e-3)
	b.isrc("ix", "0", b.outer("d"), 0).ac(1)
	b.resistor("rbig", b.outer("d"), "0", 1e9) // DC path
	b.acSweep(5, 1e6, 1e8)
	b.find("vre", "vr("+b.outer("d")+")", fCap)
	b.find("vim", "vi("+b.outer("d")+")", fCap)
	res, err := s.run(b)
	if err != nil {
		return nil, fmt.Errorf("momcap c testbench: %w", err)
	}
	ev.Sims++
	c, err := capFromVrVi(res.Measures["vre"], res.Measures["vim"])
	if err != nil {
		return nil, fmt.Errorf("momcap c testbench: %w", err)
	}
	ev.Values["C"] = c

	// Testbench 2: lead resistance — DC current through the cap's
	// terminal network (the cap itself is open at DC, so drive
	// through a replica resistive path: measure the series lead R by
	// shorting the cap plates with a 1 mΩ link).
	b = newTB(t, "momcap r testbench", ex, routes)
	b.resistor("rshort", b.dev("d"), b.dev("s"), 1e-3)
	b.resistor("rtb", b.outer("s"), "0", 1e-3)
	b.isrc("ix", "0", b.outer("d"), 1e-3)
	b.op()
	res, err = s.run(b)
	if err != nil {
		return nil, fmt.Errorf("momcap r testbench: %w", err)
	}
	ev.Sims++
	// V = I * Rtotal with I = 1 mA.
	var rtot float64
	if res.OP != nil {
		rtot = res.OP.Volt("e_d") / 1e-3
		if rtot == 0 {
			rtot = res.OP.Volt("p_d") / 1e-3
		}
	}
	if rtot <= 0 {
		rtot = 1e-3
	}
	ev.Values["ESR"] = rtot
	ev.Values["frequency"] = 1 / (2 * math.Pi * rtot * cNom)
	return ev, nil
}

// capSchematicEval returns the schematic reference for the capacitor:
// the design C with the nominal lead budget.
func capSchematicEval(sz Sizing) *Eval {
	c := capDesignC(nil, sz)
	return &Eval{
		Values: map[string]float64{
			"C":         c,
			"ESR":       capNominalR,
			"frequency": 1 / (2 * math.Pi * capNominalR * c),
		},
	}
}
