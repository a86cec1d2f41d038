// Package circuits builds the paper's evaluation circuits — the
// common-source amplifier of Fig. 2, the high-frequency 5T OTA, the
// StrongARM comparator, and the eight-stage differential RO-VCO — as
// annotated schematics: a netlist, the primitive instances with their
// library kinds and sizings, the terminal-to-net mapping the flow
// needs to splice extracted parasitics, and a circuit-level evaluator
// that measures the metrics the paper's result tables report.
package circuits

import (
	"context"
	"fmt"
	"strings"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/spice"
)

// Inst is one primitive instance inside a benchmark.
type Inst struct {
	Name   string
	Kind   string // primlib kind
	Sizing primlib.Sizing
	// DevA and DevB list the netlist devices realizing logical
	// devices A and B of the primitive layout.
	DevA, DevB []string
	// TermNets maps cellgen wire keys to circuit nets (the ports the
	// flow routes and splices): e.g. "d_a" -> "o1".
	TermNets map[string]string
	// StaticBias carries designed-in values (tail current, loads);
	// voltages are refined from the schematic operating point.
	StaticBias primlib.Bias
	// SymWith names another instance this one must be placed
	// symmetrically with (optional).
	SymWith string
}

// Bias derives the primitive bias from the schematic operating point:
// voltages from the instance's nets, currents and loads from the
// design values.
func (in *Inst) Bias(op *spice.OPResult) primlib.Bias {
	b := in.StaticBias
	if g, ok := in.TermNets["g_a"]; ok {
		b.VCM = op.Volt(g)
	} else if g, ok := in.TermNets["g"]; ok {
		b.VCM = op.Volt(g)
	}
	if d, ok := in.TermNets["d_a"]; ok {
		b.VD = op.Volt(d)
	} else if d, ok := in.TermNets["d"]; ok {
		b.VD = op.Volt(d)
	}
	return b
}

// Benchmark is one evaluation circuit.
type Benchmark struct {
	Name      string
	Schematic *circuit.Netlist
	Insts     []*Inst
	// RoutedNets lists the inter-primitive nets the global router
	// handles (signal nets; power is routed manually per the paper).
	RoutedNets []string
	// Eval measures the circuit-level metrics on a (schematic or
	// post-layout) netlist variant. The context bounds every SPICE run
	// underneath (pass context.Background() when no deadline applies).
	// An evaluation reads only the tech and the netlist's devices: the
	// flow caches its metrics under evcache.NetlistKey (PDK
	// fingerprint, benchmark name, device digest), so an Eval that read
	// anything else could be served another input's metrics, and a
	// change to what an Eval measures needs an evcache.SchemaVersion
	// bump.
	Eval func(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error)
	// MetricOrder fixes the reporting order of Eval's keys.
	MetricOrder []string
	// MetricUnit maps metric name to display unit.
	MetricUnit map[string]string
}

// Inst returns the named instance.
func (b *Benchmark) Inst(name string) *Inst {
	for _, in := range b.Insts {
		if in.Name == name {
			return in
		}
	}
	return nil
}

// Validate checks the benchmark wiring: every instance's devices and
// nets must exist in the schematic, and its kind must be registered.
func (b *Benchmark) Validate() error {
	for _, in := range b.Insts {
		if _, err := primlib.Lookup(context.TODO(), in.Kind); err != nil {
			return fmt.Errorf("%s/%s: %w", b.Name, in.Name, err)
		}
		for _, dn := range append(append([]string(nil), in.DevA...), in.DevB...) {
			if b.Schematic.Device(dn) == nil {
				return fmt.Errorf("%s/%s: device %s not in schematic", b.Name, in.Name, dn)
			}
		}
		for term, net := range in.TermNets {
			found := false
			for _, n := range b.Schematic.Nets() {
				if n == circuit.NormalizeNet(net) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%s/%s: terminal %s maps to unknown net %s",
					b.Name, in.Name, term, net)
			}
		}
	}
	return nil
}

// Names lists the benchmark circuits Build understands, sorted — the
// vocabulary flow.Request.Check validates against.
func Names() []string {
	return []string{"csamp", "ota5t", "rovco", "strongarm", "telescopic"}
}

// Build constructs a benchmark by name. stages applies to the RO-VCO
// only (values < 1 take the paper's 8-stage default). Unknown names
// return a descriptive error listing the vocabulary, so callers can
// surface it verbatim as a usage / bad-request message.
func Build(t *pdk.Tech, name string, stages int) (*Benchmark, error) {
	if stages < 1 {
		stages = 8
	}
	switch name {
	case "csamp":
		return CommonSource(t)
	case "ota5t":
		return OTA5T(t)
	case "strongarm":
		return StrongARM(t)
	case "rovco":
		return ROVCO(t, stages)
	case "telescopic":
		return Telescopic(t)
	default:
		return nil, fmt.Errorf("unknown circuit %q (want %s)", name, strings.Join(Names(), ", "))
	}
}

// opOf simulates the schematic operating point.
func opOf(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (*spice.OPResult, error) {
	e, err := spice.New(ctx, t, nl)
	if err != nil {
		return nil, err
	}
	return e.OP()
}

// SchematicOPCtx exposes the benchmark's operating point for bias
// derivation.
func (b *Benchmark) SchematicOPCtx(ctx context.Context, t *pdk.Tech) (*spice.OPResult, error) {
	return opOf(ctx, t, b.Schematic)
}
