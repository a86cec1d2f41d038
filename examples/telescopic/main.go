// Extension circuit: a telescopic cascode OTA through the full flow.
//
// The paper closes with "this work can readily be extended"; this
// example demonstrates it. The telescopic OTA's input pair is the
// cascoded-pair primitive (diffpair_cascode), whose cascode devices
// shield the inputs from the output routes — so, compared to the 5T
// OTA, the conventional-vs-optimized gap concentrates in bandwidth
// while the (much higher) gain survives layout in both flows.
//
//	go run ./examples/telescopic
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
	bm, err := circuits.Telescopic(tech)
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

	tb := report.New("Telescopic cascode OTA (extension circuit)",
		"Metric", "Schematic", "Conventional", "This work")
	for _, m := range bm.MetricOrder {
		tb.Add(fmt.Sprintf("%s (%s)", m, bm.MetricUnit[m]),
			fmt.Sprintf("%.5g", results[flow.Schematic].Metrics[m]),
			fmt.Sprintf("%.5g", results[flow.Conventional].Metrics[m]),
			fmt.Sprintf("%.5g", results[flow.Optimized].Metrics[m]))
	}
	fmt.Print(tb.String())

	ota, err := circuits.OTA5T(tech)
	if err != nil {
		log.Fatal(err)
	}
	otaSch, err := flow.RunContext(context.Background(), tech, ota, flow.Schematic, flow.Params{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntelescopic gain %.1f dB vs 5T OTA %.1f dB — the cascode's gm·ro boost,\n",
		results[flow.Schematic].Metrics["gain_db"], otaSch.Metrics["gain_db"])
	fmt.Println("preserved through layout because the cascode isolates the drain routes.")
}
