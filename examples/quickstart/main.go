// Quickstart: optimize a single primitive end to end.
//
// This walks the public surface in the order a user meets it:
// pick a primitive from the library, give its sizing and circuit bias,
// run Algorithm 1 (selection over all layout configurations plus wire
// tuning), and inspect the layout options handed to the placer.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"primopt/internal/optimize"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/units"
)

func main() {
	tech := pdk.Default()

	// A differential pair sized like the paper's running example:
	// nfin*nf*m = 960 fins per side at L = 14 nm.
	entry := primlib.DiffPair
	sizing := primlib.Sizing{TotalFins: 960, L: tech.GateL}

	// Bias conditions come from the circuit-level schematic
	// simulation in a full flow; here we state them directly.
	bias := primlib.Bias{
		Vdd:   0.8,
		VCM:   0.45,   // input common mode
		VD:    0.4,    // drain operating point
		ITail: 100e-6, // tail current
		CLoad: 5e-15,  // external load per drain
	}

	// Evaluations are cached under keys that carry the PDK's
	// fingerprint, computed once per Tech.
	res, err := optimize.OptimizeCtx(context.Background(), tech, tech.Fingerprint(), entry, sizing, bias, optimize.Params{Bins: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("schematic reference: Gm = %sA/V, Ctotal = %sF, offset = %sV\n",
		units.Format(res.Schematic.Values["Gm"], 3),
		units.Format(res.Schematic.Values["Ctotal"], 3),
		units.Format(res.Schematic.Values["offset"], 2))
	fmt.Printf("evaluated %d layout configurations with %d SPICE runs\n\n",
		len(res.AllOptions), res.TotalSims())

	fmt.Println("options handed to the placer (one per aspect-ratio bin):")
	for _, opt := range res.Selected {
		cfg := opt.Layout.Config
		fmt.Printf("  bin %d: %-26s  %4d x %4d nm  cost %5.1f  source wires x%d\n",
			opt.Bin+1, cfg.ID(),
			opt.Layout.BBox.W(), opt.Layout.BBox.H(),
			opt.Cost, opt.Layout.Wires["s"].NWires)
		for _, v := range opt.Values {
			fmt.Printf("         %s\n", v)
		}
	}

	best := res.Best()
	fmt.Printf("\nbest option: %s (cost %.1f, Gm %sA/V vs schematic %sA/V)\n",
		best.Layout.Config.ID(), best.Cost,
		units.Format(best.Eval.Values["Gm"], 3),
		units.Format(res.Schematic.Values["Gm"], 3))
}
