package circuits

import (
	"context"
	"fmt"

	"primopt/internal/circuit"
	"primopt/internal/measure"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/spice"
)

// StrongARM builds the StrongARM comparator of Fig. 3: clocked tail,
// NMOS input pair, NMOS and PMOS cross-coupled regeneration pairs,
// and PMOS precharge switches on the internal and output nodes. The
// paper's primitives (shaded boxes in Fig. 3a) map to: diffpair
// (M1/M2), xcpair (M3/M4), xcpair_p (M5/M6), and switches.
func StrongARM(t *pdk.Tech) (*Benchmark, error) {
	const (
		vdd    = 0.8
		vcm    = 0.45
		dv     = 0.05 // applied differential input
		dpFins = 96
		xcFins = 48
		swFins = 24
		clkPer = 2e-9
		cload  = 4e-15
	)
	b := circuit.NewBuilder("strongarm")
	b.V("vdd", "vdd", "0", vdd).
		VPulse("vclk", "clk", "0", 0, vdd, 0.2e-9, 20e-12, 20e-12, clkPer/2, clkPer).
		V("vip", "inp", "0", vcm+dv/2).
		V("vin", "inn", "0", vcm-dv/2).
		// Clocked tail switch.
		MOS("m7", circuit.NMOS, "tail", "clk", "0", "0", 8, 6, 1, t.GateL).
		// Input pair discharging internal nodes x/y.
		MOS("m1", circuit.NMOS, "x", "inp", "tail", "0", 8, 6, 2, t.GateL).
		MOS("m2", circuit.NMOS, "y", "inn", "tail", "0", 8, 6, 2, t.GateL).
		// NMOS cross-coupled pair (sources on the internal nodes).
		MOS("m3", circuit.NMOS, "outp", "outn", "x", "0", 8, 6, 1, t.GateL).
		MOS("m4", circuit.NMOS, "outn", "outp", "y", "0", 8, 6, 1, t.GateL).
		// PMOS cross-coupled pair.
		MOS("m5", circuit.PMOS, "outp", "outn", "vdd", "vdd", 8, 6, 1, t.GateL).
		MOS("m6", circuit.PMOS, "outn", "outp", "vdd", "vdd", 8, 6, 1, t.GateL).
		// Precharge switches (active while clk is low).
		MOS("s1", circuit.PMOS, "outp", "clk", "vdd", "vdd", 8, 3, 1, t.GateL).
		MOS("s2", circuit.PMOS, "outn", "clk", "vdd", "vdd", 8, 3, 1, t.GateL).
		MOS("s3", circuit.PMOS, "x", "clk", "vdd", "vdd", 8, 3, 1, t.GateL).
		MOS("s4", circuit.PMOS, "y", "clk", "vdd", "vdd", 8, 3, 1, t.GateL).
		C("cp", "outp", "0", cload).
		C("cn", "outn", "0", cload)
	nl := b.Netlist()

	bm := &Benchmark{
		Name:      "strongarm",
		Schematic: nl,
		Insts: []*Inst{
			{
				Name:   "dp0",
				Kind:   "diffpair",
				Sizing: primlib.Sizing{TotalFins: dpFins, L: t.GateL},
				DevA:   []string{"m1"},
				DevB:   []string{"m2"},
				TermNets: map[string]string{
					"d_a": "x", "d_b": "y", "g_a": "inp", "g_b": "inn", "s": "tail",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: 200e-6, CLoad: cload},
			},
			{
				Name:   "xcn0",
				Kind:   "xcpair",
				Sizing: primlib.Sizing{TotalFins: xcFins, L: t.GateL},
				DevA:   []string{"m3"},
				DevB:   []string{"m4"},
				TermNets: map[string]string{
					"d_a": "outp", "d_b": "outn", "g_a": "outn", "g_b": "outp", "s": "x",
				},
				StaticBias: primlib.Bias{Vdd: vdd, ITail: 100e-6, CLoad: cload},
			},
			{
				Name:   "xcp0",
				Kind:   "xcpair_p",
				Sizing: primlib.Sizing{TotalFins: xcFins, L: t.GateL},
				DevA:   []string{"m5"},
				DevB:   []string{"m6"},
				TermNets: map[string]string{
					"d_a": "outp", "d_b": "outn", "g_a": "outn", "g_b": "outp", "s": "vdd",
				},
				StaticBias: primlib.Bias{Vdd: vdd, VCM: vdd / 2, VD: vdd / 2, ITail: 100e-6, CLoad: cload},
			},
			{
				Name:   "sw0",
				Kind:   "switch_p",
				Sizing: primlib.Sizing{TotalFins: swFins, L: t.GateL},
				DevA:   []string{"s1"},
				TermNets: map[string]string{
					"d": "outp", "g": "clk", "s": "vdd",
				},
				StaticBias: primlib.Bias{Vdd: vdd, VCM: 0, VD: vdd / 2},
			},
			{
				Name:   "sw1",
				Kind:   "switch_p",
				Sizing: primlib.Sizing{TotalFins: swFins, L: t.GateL},
				DevA:   []string{"s2"},
				TermNets: map[string]string{
					"d": "outn", "g": "clk", "s": "vdd",
				},
				StaticBias: primlib.Bias{Vdd: vdd, VCM: 0, VD: vdd / 2},
				SymWith:    "sw0",
			},
		},
		RoutedNets:  []string{"x", "y", "outp", "outn", "tail", "inp", "inn", "clk"},
		MetricOrder: []string{"delay", "power"},
		MetricUnit:  map[string]string{"delay": "s", "power": "W"},
	}
	bm.Eval = func(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (map[string]float64, error) {
		e, err := spice.New(ctx, t, nl)
		if err != nil {
			return nil, err
		}
		res, err := e.Tran(4e-12, 1.5*clkPer, spice.TranOpts{})
		if err != nil {
			return nil, err
		}
		// Delay: clk rise to the losing output falling through vdd/2.
		// The losing side depends on the regeneration dynamics; take
		// whichever output resolves low.
		tClk, err := measure.CrossingTime(res, "clk", vdd/2, "rise", 1, 0)
		if err != nil {
			return nil, fmt.Errorf("strongarm eval: clock edge: %w", err)
		}
		loser, winner := "outp", "outn"
		tOut, err := measure.CrossingTime(res, loser, vdd/2, "fall", 1, tClk)
		if err != nil {
			loser, winner = "outn", "outp"
			tOut, err = measure.CrossingTime(res, loser, vdd/2, "fall", 1, tClk)
			if err != nil {
				return nil, fmt.Errorf("strongarm eval: no decision edge: %w", err)
			}
		}
		pwr, err := measure.AvgSupplyPower(res, "vdd", vdd, 0, 1.5*clkPer)
		if err != nil {
			return nil, err
		}
		// The winning output must hold high while the clock is high
		// (sample just before the falling clock edge at 1.2 ns).
		tHold := 0.2e-9 + clkPer/2 - 50e-12
		k := 0
		for i, tm := range res.Times {
			if tm <= tHold {
				k = i
			}
		}
		if v := res.VoltAt(winner, k); v < vdd*0.7 {
			return nil, fmt.Errorf("strongarm eval: no clean decision (%s=%g)", winner, v)
		}
		return map[string]float64{
			"delay": tOut - tClk,
			"power": pwr,
		}, nil
	}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	return bm, nil
}
