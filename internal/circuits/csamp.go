package circuits

import (
	"context"
	"fmt"
	"math"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// CommonSource builds the Fig. 2 motivating circuit: an NMOS
// common-source stage (primitive 1) with a PMOS current-source load
// (primitive 2) and a capacitive load. The PMOS gate bias is tuned at
// build time so the output settles near mid-rail — the "schematic
// design" step the paper assumes has already happened.
func CommonSource(t *pdk.Tech) (*Benchmark, error) {
	const (
		vdd   = 0.8
		vin   = 0.38
		nfM1  = 64
		nfM2  = 128
		cload = 20e-15
	)
	// The stage is self-biased through a large feedback resistor
	// (out -> gate) with AC-coupled input drive — the standard bench
	// arrangement that keeps the operating point well-defined when
	// layout parasitics shift the two current sources differently
	// (without it, a high-gain stage slews its output into a rail on
	// any sub-percent current mismatch).
	build := func(vbp float64) *circuit.Netlist {
		b := circuit.NewBuilder("csamp")
		b.V("vdd", "vdd", "0", vdd).
			V("vin", "ins", "0", 0).
			C("cc", "ins", "in", 1e-9).
			R("rf", "out", "in", 10e6).
			V("vbp", "bp", "0", vbp).
			MOS("m1", circuit.NMOS, "out", "in", "0", "0", 8, 8, 1, t.GateL).
			MOS("m2", circuit.PMOS, "out", "bp", "vdd", "vdd", 8, 16, 1, t.GateL).
			C("cl", "out", "0", cload)
		return b.Netlist()
	}
	// Bisect the PMOS bias until the self-biased output (= gate
	// voltage) sits at the intended input level.
	lo, hi := 0.0, vdd // lower vbp = stronger PMOS = higher out
	var nl *circuit.Netlist
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		nl = build(mid)
		op, err := opOf(context.Background(), t, nl)
		if err != nil {
			return nil, fmt.Errorf("csamp bias search: %w", err)
		}
		vout := op.Volt("out")
		if math.Abs(vout-vin) < 1e-3 {
			break
		}
		if vout > vin {
			lo = mid // output too high: weaken PMOS (raise vbp)
		} else {
			hi = mid
		}
	}

	// The AC excitation used by Eval (added to a clone there).
	bm := &Benchmark{
		Name:      "csamp",
		Schematic: nl,
		Insts: []*Inst{
			{
				Name:   "cs1",
				Kind:   "csamp",
				Sizing: primlib.Sizing{TotalFins: nfM1, L: t.GateL},
				DevA:   []string{"m1"},
				TermNets: map[string]string{
					"d": "out", "g": "in", "s": "0",
				},
				StaticBias: primlib.Bias{Vdd: vdd, CLoad: cload},
			},
			{
				Name:   "cs2",
				Kind:   "csource_p",
				Sizing: primlib.Sizing{TotalFins: nfM2, L: t.GateL},
				DevA:   []string{"m2"},
				TermNets: map[string]string{
					"d": "out", "g": "bp", "s": "vdd",
				},
				StaticBias: primlib.Bias{Vdd: vdd, CLoad: cload},
			},
		},
		RoutedNets:  []string{"out"},
		MetricOrder: []string{"gain_db", "ugf", "power"},
		MetricUnit:  map[string]string{"gain_db": "dB", "ugf": "Hz", "power": "W"},
	}
	bm.Eval = func(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error) {
		drive := func(sim *circuit.Netlist) error {
			vin := sim.Device("vin")
			if vin == nil {
				return fmt.Errorf("vin missing")
			}
			vin.ACMag = 1
			return nil
		}
		m, idd, err := evalAC(ctx, t, nl, drive, 1e6, nil)
		if err != nil {
			return nil, fmt.Errorf("csamp eval: %w", err)
		}
		return map[string]float64{
			"gain_db": m.GainDB,
			"ugf":     m.UGF,
			"power":   idd * vdd,
		}, nil
	}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	return bm, nil
}
