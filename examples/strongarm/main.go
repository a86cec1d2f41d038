// StrongARM comparator through the full flow (the comparator half of
// Table VI): the clocked regenerative comparator's decision delay and
// power, schematic vs conventional vs optimized layout.
//
// The comparator's primitives are the input differential pair, the
// NMOS and PMOS cross-coupled regeneration pairs, and the PMOS
// precharge switches (Fig. 3 of the paper); the delay depends on the
// parasitics at the internal and output nodes, which is where the
// primitive optimization earns its keep.
//
//	go run ./examples/strongarm
package main

import (
	"context"
	"fmt"
	"log"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/pdk"
	"primopt/internal/report"
)

func main() {
	tech := pdk.Default()
	bm, err := circuits.StrongARM(tech)
	if err != nil {
		log.Fatal(err)
	}

	results := map[flow.Mode]*flow.Result{}
	for _, mode := range []flow.Mode{flow.Schematic, flow.Conventional, flow.Optimized} {
		r, err := flow.RunContext(context.Background(), tech, bm, mode, flow.Params{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		results[mode] = r
	}

	tb := report.New("StrongARM comparator (Table VI)",
		"Metric", "Schematic", "Conventional", "This work")
	tb.Add("Delay (ps)",
		fmt.Sprintf("%.4g", results[flow.Schematic].Metrics["delay"]*1e12),
		fmt.Sprintf("%.4g", results[flow.Conventional].Metrics["delay"]*1e12),
		fmt.Sprintf("%.4g", results[flow.Optimized].Metrics["delay"]*1e12))
	tb.Add("Power (uW)",
		fmt.Sprintf("%.4g", results[flow.Schematic].Metrics["power"]*1e6),
		fmt.Sprintf("%.4g", results[flow.Conventional].Metrics["power"]*1e6),
		fmt.Sprintf("%.4g", results[flow.Optimized].Metrics["power"]*1e6))
	fmt.Print(tb.String())

	sch := results[flow.Schematic].Metrics["delay"]
	conv := results[flow.Conventional].Metrics["delay"]
	opt := results[flow.Optimized].Metrics["delay"]
	fmt.Printf("\ndelay penalty vs schematic: conventional +%.0f%%, this work +%.0f%%\n",
		100*(conv-sch)/sch, 100*(opt-sch)/sch)
	fmt.Println("(paper: conventional +82%, this work +64% — same ordering)")
}
