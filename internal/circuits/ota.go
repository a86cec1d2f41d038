package circuits

import (
	"context"
	"fmt"

	"primopt/internal/circuit"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// OTA5T builds the high-frequency five-transistor OTA of Fig. 6: an
// NMOS differential pair, a passive NMOS current mirror providing the
// tail current (the paper's nets 1/3), and an active PMOS
// current-mirror load (nets 2/4/5), driving a capacitive load.
func OTA5T(t *pdk.Tech) (*Benchmark, error) {
	const (
		vdd    = 0.8
		vcm    = 0.45
		ibias  = 40e-6
		dpFins = 240
		cmFins = 120 // tail mirror reference; output side carries 2x
		ldFins = 160
		cload  = 20e-15
	)
	b := circuit.NewBuilder("ota5t")
	b.V("vdd", "vdd", "0", vdd).
		V("vip", "inp", "0", vcm).
		V("vin", "inn", "0", vcm).
		I("ib", "vdd", "bias", ibias).
		// Passive NMOS tail mirror: diode reference + 2x output.
		MOS("mt1", circuit.NMOS, "bias", "bias", "0", "0", 6, 10, 2, t.GateL).
		MOS("mt2", circuit.NMOS, "tail", "bias", "0", "0", 6, 10, 4, t.GateL).
		// Differential pair.
		MOS("m1", circuit.NMOS, "o1", "inp", "tail", "0", 6, 10, 4, t.GateL).
		MOS("m2", circuit.NMOS, "out", "inn", "tail", "0", 6, 10, 4, t.GateL).
		// Active PMOS mirror load.
		MOS("m3", circuit.PMOS, "o1", "o1", "vdd", "vdd", 8, 10, 2, t.GateL).
		MOS("m4", circuit.PMOS, "out", "o1", "vdd", "vdd", 8, 10, 2, t.GateL).
		C("cl", "out", "0", cload)
	nl := b.Netlist()

	bm := &Benchmark{
		Name:      "ota5t",
		Schematic: nl,
		Insts: []*Inst{
			{
				Name:   "dp0",
				Kind:   "diffpair",
				Sizing: primlib.Sizing{TotalFins: dpFins, L: t.GateL},
				DevA:   []string{"m1"},
				DevB:   []string{"m2"},
				TermNets: map[string]string{
					"d_a": "o1", "d_b": "out",
					"g_a": "inp", "g_b": "inn",
					"s": "tail",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: 2 * ibias, CLoad: cload},
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
				DevA:   []string{"m3"},
				DevB:   []string{"m4"},
				TermNets: map[string]string{
					"d_a": "o1", "d_b": "out", "s": "vdd",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: ibias, CLoad: cload},
			},
		},
		RoutedNets:  []string{"o1", "out", "tail", "bias", "inp", "inn"},
		MetricOrder: []string{"current", "gain_db", "ugf", "f3db", "pm"},
		MetricUnit: map[string]string{
			"current": "A", "gain_db": "dB", "ugf": "Hz", "f3db": "Hz", "pm": "deg",
		},
	}
	bm.Eval = func(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error) {
		m, idd, err := evalAC(ctx, t, nl, differentialDrive, 1e5, nil)
		if err != nil {
			return nil, fmt.Errorf("ota eval: %w", err)
		}
		return map[string]float64{
			"current": idd,
			"gain_db": m.GainDB,
			"ugf":     m.UGF,
			"f3db":    m.F3dB,
			"pm":      m.PhaseMarginDeg,
		}, nil
	}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	return bm, nil
}
