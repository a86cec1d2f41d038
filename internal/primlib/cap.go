package primlib

import (
	"fmt"
	"math"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/cost"
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
	Family:      capFamily,
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

var capFamily = &Family{Name: "cap", eval: (*evaluation).momcap, bias: noBias}

// noBias is the passives' projection: their testbenches read no bias.
func noBias(Bias) Bias { return Bias{} }

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

// momcap measures the effective capacitance between the terminals
// through the extracted lead RC, and the usable frequency (the RC
// corner of the total lead resistance against the cap). Its schematic
// reference is the design C with the nominal lead budget.
func (v *evaluation) momcap() error {
	if v.ex == nil {
		c := capDesignC(nil, v.sz)
		v.Values["C"] = c
		v.Values["ESR"] = capNominalR
		v.Values["frequency"] = 1 / (2 * math.Pi * capNominalR * c)
		return nil
	}
	cNom := capDesignC(v.ex.Layout, v.sz)
	if cNom <= 0 {
		return fmt.Errorf("momcap: non-positive design capacitance")
	}

	// Testbench 1: effective C — AC current into the top terminal
	// with the bottom grounded, read from Im(Y) at a frequency low
	// enough that the lead R is invisible.
	b := v.deck("momcap c testbench")
	b.capacitor("cmain", b.dev("d"), b.dev("s"), g6(cNom))
	b.resistor("rtb", b.outer("s"), "0", 1e-3)
	b.isrc("ix", "0", b.outer("d"), 0).ac(1)
	b.resistor("rbig", b.outer("d"), "0", 1e9) // DC path
	b.measureC(b.outer("d"))
	res, err := v.solve(b)
	if err != nil {
		return err
	}
	c, err := b.capOf(res)
	if err != nil {
		return err
	}
	v.Values["C"] = c

	// Testbench 2: lead resistance — DC current through the cap's
	// terminal network (the cap itself is open at DC, so drive
	// through a replica resistive path: measure the series lead R by
	// shorting the cap plates with a 1 mΩ link).
	b = v.deck("momcap r testbench")
	b.resistor("rshort", b.dev("d"), b.dev("s"), 1e-3)
	b.resistor("rtb", b.outer("s"), "0", 1e-3)
	b.isrc("ix", "0", b.outer("d"), 1e-3)
	b.op()
	res, err = v.solve(b)
	if err != nil {
		return err
	}
	// V = I * Rtotal with I = 1 mA.
	rtot := res.OP.Volt(b.outer("d")) / 1e-3
	if rtot <= 0 {
		rtot = 1e-3
	}
	v.Values["ESR"] = rtot
	v.Values["frequency"] = 1 / (2 * math.Pi * rtot * cNom)
	return nil
}
