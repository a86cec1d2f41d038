// Package primlib is the augmented primitive library of the paper
// (Section II): for each primitive it records the performance metrics
// with their weights α, the tuning terminals (and which are
// correlated), and — the paper's key mechanism — a SPICE testbench per
// metric: a deck with excitation and .measure statements, built in
// memory as a spice.Deck and solved on the internal simulator.
// Evaluating a primitive layout runs those testbenches against the
// extracted parasitics and LDE shifts; evaluating with a nil
// extraction gives the schematic reference values.
package primlib

import (
	"context"
	"fmt"
	"sort"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/cost"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// MetricSpec names one performance metric of a primitive and its
// weight α (Table II).
type MetricSpec struct {
	Name   string
	Weight float64
}

// TuningTerm is one tuning terminal: a within-primitive wire (by its
// cellgen terminal name) whose parallel-wire count trades R against C.
type TuningTerm struct {
	// Name identifies the terminal for reports ("source", "drain",
	// "out").
	Name string
	// Wires are the cellgen wire keys this terminal controls (e.g.
	// both drain halves of a differential pair move together).
	Wires []string
	// CorrelatedWith names another tuning terminal whose optimum
	// interacts with this one; correlated groups are enumerated
	// jointly (Algorithm 1, lines 9–13).
	CorrelatedWith string
}

// PortSpec describes an external port of the primitive for port
// optimization: which cellgen wire connects to it and which metric
// testbenches are sensitive to it.
type PortSpec struct {
	Name string
	Wire string // cellgen terminal key feeding this port
}

// Entry is one primitive library entry.
type Entry struct {
	Kind        string
	Description string
	Family      *Family // required: register rejects an entry without one
	MOSType     circuit.DeviceType
	Structure   cellgen.Structure
	RatioB      int // mirror ratio (Pair only)
	Metrics     []MetricSpec
	Tuning      []TuningTerm
	Ports       []PortSpec
	// SymPorts lists groups of port wires that the detailed router
	// keeps geometrically symmetric (the paper's matching-net
	// constraint); port optimization sweeps them together.
	SymPorts [][]string
}

// A Family is an evaluator family: the testbenches its entries share
// and the bias fields those testbenches read.
type Family struct {
	Name string
	// circuit adds the devices, wires and routes that every testbench
	// deck of an evaluation opens with; evaluation.deck builds it once
	// per evaluation. It is nil for the passives, whose decks differ in
	// their first element.
	circuit func(v *evaluation, b *tb)
	// eval runs the testbenches, filling v's Eval.
	eval func(v *evaluation) error
	// bias keeps the fields the testbenches read and zeroes the rest
	// (Entry.TestbenchBias).
	bias func(Bias) Bias
}

// Sizing fixes the device sizes of a primitive instance.
type Sizing struct {
	TotalFins int   // fins of device A (nfin*nf*m)
	L         int64 // nm
	RatioB    int   // overrides entry default when > 0
	// NominalI is the intended bias current (A) where applicable
	// (mirrors, sources); used by testbenches.
	NominalI float64
}

// Bias carries the DC conditions and external loading a primitive
// sees in its circuit, obtained from the circuit-level schematic
// simulation (paper Section II-B).
type Bias struct {
	Vdd   float64
	VCM   float64 // input common mode for gates
	VD    float64 // drain operating voltage
	ITail float64 // tail/bias current, A
	CLoad float64 // external load capacitance at the output port(s), F
	VCtrl float64 // control voltage (current-starved inverter)
	VCasc float64 // cascode gate bias (cascoded pairs/mirrors)
}

// Eval is the result of evaluating one primitive configuration: the
// measured metrics and the number of SPICE deck runs it took (the
// paper's Table V accounting).
type Eval struct {
	Values map[string]float64
	Sims   int
}

// Spec builds the cellgen spec for an entry and sizing.
func (e *Entry) Spec(sz Sizing) cellgen.Spec {
	return cellgen.Spec{
		Name:      e.Kind,
		Structure: e.Structure,
		TotalFins: sz.TotalFins,
		RatioB:    e.ratio(sz),
		L:         sz.L,
	}
}

// ratio is device B's multiple of device A: the sizing's, else the
// entry's, and at least 1.
func (e *Entry) ratio(sz Sizing) int {
	r := e.RatioB
	if sz.RatioB > 0 {
		r = sz.RatioB
	}
	return max(r, 1)
}

// rail is the node the entry's device sources and bulks tie to: vdd
// for PMOS devices, which hang from the supply, and ground for NMOS.
func (e *Entry) rail() string {
	if e.MOSType == circuit.PMOS {
		return "vdd"
	}
	return "0"
}

// registry holds the built-in library, keyed by kind.
var registry = map[string]*Entry{}

func register(e *Entry) *Entry {
	if _, dup := registry[e.Kind]; dup || e.Family == nil {
		//lint:allow errflow init-time registration of the built-in library; a duplicate kind or a missing family is a programmer error caught at startup
		panic("primlib: duplicate or family-less entry " + e.Kind)
	}
	registry[e.Kind] = e
	return e
}

// Lookup returns the library entry for a primitive kind, counting the
// lookup on the context's trace.
func Lookup(ctx context.Context, kind string) (*Entry, error) {
	tr := obs.From(ctx)
	e, ok := registry[kind]
	if !ok {
		tr.Counter("primlib.lookup_misses").Inc()
		return nil, fmt.Errorf("primlib: unknown primitive kind %q", kind)
	}
	tr.Counter("primlib.lookups").Inc()
	return e, nil
}

// Kinds lists the registered primitive kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The library catalog. Families share testbench implementations: a
// cascoded differential pair measures the same metrics through the
// same excitations as the plain pair, with its own sizing. This is
// the "one-time exercise for 20–30 primitives" of Section II-A.
var (
	DiffPair = register(&Entry{
		Kind:        "diffpair",
		Description: "NMOS differential pair",
		Family:      diffPairFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightMedium},
			{Name: "Gm/Ctotal", Weight: cost.WeightMedium},
			{Name: "offset", Weight: cost.WeightHigh},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
		},
		Ports: []PortSpec{
			{Name: "d_a", Wire: "d_a"},
			{Name: "d_b", Wire: "d_b"},
			{Name: "s", Wire: "s"},
		},
		SymPorts: [][]string{{"d_a", "d_b"}},
	})

	DiffPairCascode = register(&Entry{
		Kind:        "diffpair_cascode",
		Description: "cascoded NMOS differential pair",
		Family:      cascodePairFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightMedium},
			{Name: "Gm/Ctotal", Weight: cost.WeightMedium},
			{Name: "offset", Weight: cost.WeightHigh},
		},
		Tuning: []TuningTerm{{Name: "source", Wires: []string{"s", "s_a", "s_b"}}},
		Ports: []PortSpec{
			{Name: "d_a", Wire: "d_a"}, {Name: "d_b", Wire: "d_b"}, {Name: "s", Wire: "s"},
		},
		SymPorts: [][]string{{"d_a", "d_b"}},
	})

	SwitchedDiffPair = register(&Entry{
		Kind:        "diffpair_switched",
		Description: "switched differential pair (data converters)",
		Family:      diffPairFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightMedium},
			{Name: "Gm/Ctotal", Weight: cost.WeightMedium},
			{Name: "offset", Weight: cost.WeightHigh},
		},
		Tuning: []TuningTerm{{Name: "source", Wires: []string{"s", "s_a", "s_b"}}},
		Ports: []PortSpec{
			{Name: "d_a", Wire: "d_a"}, {Name: "d_b", Wire: "d_b"}, {Name: "s", Wire: "s"},
		},
		SymPorts: [][]string{{"d_a", "d_b"}},
	})

	CurrentMirror = register(&Entry{
		Kind:        "cmirror",
		Description: "passive NMOS current mirror",
		Family:      mirrorFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "ratio", Weight: cost.WeightHigh},
			{Name: "Cout", Weight: cost.WeightLow},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}, CorrelatedWith: "drain"},
			{Name: "drain", Wires: []string{"d_a", "d_b"}, CorrelatedWith: "source"},
		},
		Ports: []PortSpec{
			{Name: "in", Wire: "d_a"},
			{Name: "out", Wire: "d_b"},
		},
	})

	CurrentMirrorP = register(&Entry{
		Kind:        "cmirror_p",
		Description: "active (PMOS) current-mirror load",
		Family:      mirrorFamily,
		MOSType:     circuit.PMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "ratio", Weight: cost.WeightHigh},
			{Name: "Cout", Weight: cost.WeightMedium}, // active CM: medium per Section II-B
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}, CorrelatedWith: "drain"},
			{Name: "drain", Wires: []string{"d_a", "d_b"}, CorrelatedWith: "source"},
		},
		Ports: []PortSpec{
			{Name: "in", Wire: "d_a"},
			{Name: "out", Wire: "d_b"},
		},
	})

	CascodeMirror = register(&Entry{
		Kind:        "cmirror_cascode",
		Description: "cascoded current mirror",
		Family:      mirrorFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "ratio", Weight: cost.WeightHigh},
			{Name: "Cout", Weight: cost.WeightLow},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}, CorrelatedWith: "drain"},
			{Name: "drain", Wires: []string{"d_a", "d_b"}, CorrelatedWith: "source"},
		},
		Ports: []PortSpec{{Name: "in", Wire: "d_a"}, {Name: "out", Wire: "d_b"}},
	})

	CurrentSource = register(&Entry{
		Kind:        "csource",
		Description: "NMOS current source (load)",
		Family:      sourceFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "current", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}},
	})

	CurrentSourceP = register(&Entry{
		Kind:        "csource_p",
		Description: "PMOS current source (load)",
		Family:      sourceFamily,
		MOSType:     circuit.PMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "current", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}},
	})

	DiodeLoad = register(&Entry{
		Kind:        "diode_load",
		Description: "diode-connected load",
		Family:      sourceFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "current", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}},
	})

	CSAmp = register(&Entry{
		Kind:        "csamp",
		Description: "common-source amplifier stage",
		Family:      ampFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}, {Name: "g", Wire: "g"}},
	})

	CGAmp = register(&Entry{
		Kind:        "cgamp",
		Description: "common-gate amplifier stage",
		Family:      ampFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}, {Name: "g", Wire: "g"}},
	})

	CDAmp = register(&Entry{
		Kind:        "cdamp",
		Description: "common-drain (source follower) stage",
		Family:      ampFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}, {Name: "g", Wire: "g"}},
	})

	CSInverter = register(&Entry{
		Kind:        "csinv",
		Description: "current-starved inverter (VCO stage)",
		Family:      inverterFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair, // inverter device + starving device share a row per polarity
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "delay", Weight: cost.WeightHigh},
			{Name: "current", Weight: cost.WeightHigh},
			{Name: "gain", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "out", Wires: []string{"d_a"}},
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "ctrl", Wires: []string{"g_b"}},
		},
		Ports: []PortSpec{{Name: "out", Wire: "d_a"}, {Name: "in", Wire: "g_a"}},
	})

	CrossCoupledPair = register(&Entry{
		Kind:        "xcpair",
		Description: "cross-coupled pair (latch/oscillator)",
		Family:      diffPairFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightHigh},
			{Name: "Gm/Ctotal", Weight: cost.WeightMedium},
			{Name: "offset", Weight: cost.WeightHigh},
		},
		Tuning: []TuningTerm{{Name: "source", Wires: []string{"s", "s_a", "s_b"}}},
		Ports: []PortSpec{
			{Name: "d_a", Wire: "d_a"}, {Name: "d_b", Wire: "d_b"}, {Name: "s", Wire: "s"},
		},
		SymPorts: [][]string{{"d_a", "d_b"}},
	})

	CrossCoupledPairP = register(&Entry{
		Kind:        "xcpair_p",
		Description: "PMOS cross-coupled pair (latch load)",
		Family:      diffPairFamily,
		MOSType:     circuit.PMOS,
		Structure:   cellgen.Pair,
		RatioB:      1,
		Metrics: []MetricSpec{
			{Name: "Gm", Weight: cost.WeightHigh},
			{Name: "Gm/Ctotal", Weight: cost.WeightMedium},
			{Name: "offset", Weight: cost.WeightHigh},
		},
		Tuning: []TuningTerm{{Name: "source", Wires: []string{"s", "s_a", "s_b"}}},
		Ports: []PortSpec{
			{Name: "d_a", Wire: "d_a"}, {Name: "d_b", Wire: "d_b"}, {Name: "s", Wire: "s"},
		},
		SymPorts: [][]string{{"d_a", "d_b"}},
	})

	SwitchP = register(&Entry{
		Kind:        "switch_p",
		Description: "PMOS analog switch (precharge)",
		Family:      sourceFamily,
		MOSType:     circuit.PMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "current", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}},
	})

	Switch = register(&Entry{
		Kind:        "switch",
		Description: "analog switch",
		Family:      sourceFamily,
		MOSType:     circuit.NMOS,
		Structure:   cellgen.Single,
		Metrics: []MetricSpec{
			{Name: "current", Weight: cost.WeightHigh},
			{Name: "ro", Weight: cost.WeightMedium},
		},
		Tuning: []TuningTerm{
			{Name: "source", Wires: []string{"s", "s_a", "s_b"}},
			{Name: "drain", Wires: []string{"d"}},
		},
		Ports: []PortSpec{{Name: "d", Wire: "d"}},
	})
)

// FindLayouts generates all candidate layouts for an entry and sizing,
// counting the generator's and this query's output on the context's
// trace.
func (e *Entry) FindLayouts(ctx context.Context, t *pdk.Tech, sz Sizing, cons *cellgen.Constraints) ([]*cellgen.Layout, error) {
	lays, err := cellgen.GenerateAll(t, e.Spec(sz), cons)
	if tr := obs.From(ctx); tr.Enabled() && err == nil {
		n := int64(len(lays))
		tr.Counter("cellgen.generate_calls").Inc()
		tr.Counter("cellgen.layouts_generated").Add(n)
		tr.Counter("primlib.layout_queries").Inc()
		tr.Counter("primlib.layouts_found").Add(n)
	}
	return lays, err
}
