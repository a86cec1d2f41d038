package circuits

import (
	"context"
	"fmt"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/spice"
)

// Telescopic builds a telescopic cascode OTA — the extension circuit
// demonstrating the paper's claim that the methodology "can readily
// be extended": an NMOS cascoded differential pair (the
// diffpair_cascode primitive), a PMOS mirror load with cascodes, and
// a mirrored tail. The cascode isolates the input pair from the
// output routes, so the optimized flow's advantage shifts from Gm
// recovery to output-node capacitance.
func Telescopic(t *pdk.Tech) (*Benchmark, error) {
	const (
		vdd    = 0.8
		vcm    = 0.42
		vcn    = 0.62 // NMOS cascode gate bias
		vcp    = 0.22 // PMOS cascode gate bias
		ibias  = 25e-6
		dpFins = 240
		cmFins = 120
		ldFins = 24
		cload  = 15e-15
	)
	b := circuit.NewBuilder("telescopic")
	b.V("vdd", "vdd", "0", vdd).
		V("vip", "inp", "0", vcm).
		V("vin", "inn", "0", vcm).
		V("vbn", "vcn", "0", vcn).
		V("vbp", "vcp", "0", vcp).
		I("ib", "vdd", "bias", ibias).
		// Tail mirror.
		MOS("mt1", circuit.NMOS, "bias", "bias", "0", "0", 6, 10, 2, t.GateL).
		MOS("mt2", circuit.NMOS, "tail", "bias", "0", "0", 6, 10, 4, t.GateL).
		// Cascoded input pair.
		MOS("m1", circuit.NMOS, "x1", "inp", "tail", "0", 6, 10, 4, t.GateL).
		MOS("m2", circuit.NMOS, "x2", "inn", "tail", "0", 6, 10, 4, t.GateL).
		MOS("mc1", circuit.NMOS, "o1", "vcn", "x1", "0", 6, 10, 4, t.GateL).
		MOS("mc2", circuit.NMOS, "out", "vcn", "x2", "0", 6, 10, 4, t.GateL).
		// PMOS mirror load with cascodes (diode through the cascode).
		// The mirror devices are deliberately small: their larger
		// |Vgs| centers the diode node (and so both outputs) with
		// enough headroom for all four stacked devices.
		MOS("mp3", circuit.PMOS, "y1", "o1", "vdd", "vdd", 8, 3, 1, t.GateL).
		MOS("mpc3", circuit.PMOS, "o1", "vcp", "y1", "vdd", 8, 3, 1, t.GateL).
		MOS("mp4", circuit.PMOS, "y2", "o1", "vdd", "vdd", 8, 3, 1, t.GateL).
		MOS("mpc4", circuit.PMOS, "out", "vcp", "y2", "vdd", 8, 3, 1, t.GateL).
		C("cl", "out", "0", cload)
	nl := b.Netlist()

	bm := &Benchmark{
		Name:      "telescopic",
		Schematic: nl,
		Insts: []*Inst{
			{
				Name:   "cdp0",
				Kind:   "diffpair_cascode",
				Sizing: primlib.Sizing{TotalFins: dpFins, L: t.GateL},
				DevA:   []string{"m1", "m2"},
				DevB:   []string{"mc1", "mc2"},
				TermNets: map[string]string{
					"d_a": "o1", "d_b": "out",
					"g_a": "inp", "g_b": "inn",
					"s": "tail",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: 2 * ibias, VCasc: vcn, CLoad: cload},
			},
			{
				Name:   "ncm0",
				Kind:   "cmirror",
				Sizing: primlib.Sizing{TotalFins: cmFins, L: t.GateL, RatioB: 2, NominalI: ibias},
				DevA:   []string{"mt1"},
				DevB:   []string{"mt2"},
				TermNets: map[string]string{
					"d_a": "bias", "d_b": "tail", "s": "0",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: ibias, CLoad: 2e-15},
			},
			{
				Name:   "pcm0",
				Kind:   "cmirror_p",
				Sizing: primlib.Sizing{TotalFins: ldFins, L: t.GateL, NominalI: ibias},
				DevA:   []string{"mp3"},
				DevB:   []string{"mp4"},
				TermNets: map[string]string{
					"d_a": "y1", "d_b": "y2", "s": "vdd",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: ibias, CLoad: 2e-15},
			},
		},
		RoutedNets:  []string{"o1", "out", "tail", "bias", "inp", "inn", "y1", "y2"},
		MetricOrder: []string{"current", "gain_db", "ugf", "pm"},
		MetricUnit: map[string]string{
			"current": "A", "gain_db": "dB", "ugf": "Hz", "pm": "deg",
		},
	}
	bm.Eval = func(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error) {
		// A usable OP keeps the output off the rails.
		railed := func(op *spice.OPResult) error {
			if v := op.Volt("out"); v < 0.15 || v > 0.7 {
				return fmt.Errorf("output railed at %.3g V", v)
			}
			return nil
		}
		m, idd, err := evalAC(ctx, t, nl, differentialDrive, 1e4, railed)
		if err != nil {
			return nil, fmt.Errorf("telescopic eval: %w", err)
		}
		return map[string]float64{
			"current": idd,
			"gain_db": m.GainDB,
			"ugf":     m.UGF,
			"pm":      m.PhaseMarginDeg,
		}, nil
	}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	return bm, nil
}
