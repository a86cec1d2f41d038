// Full hierarchical flow on the high-frequency 5T OTA (the paper's
// Fig. 6 and the OTA half of Table VI): schematic -> per-primitive
// Algorithm 1 -> placement over the optimized variants -> global
// routing -> Algorithm 2 port optimization -> post-layout simulation,
// compared against the schematic and the conventional geometric flow.
//
//	go run ./examples/ota5t
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/pdk"
	"primopt/internal/report"
)

func main() {
	tech := pdk.Default()
	bm, err := circuits.OTA5T(tech)
	if err != nil {
		log.Fatal(err)
	}

	p := flow.Params{Seed: 1}
	results := map[flow.Mode]*flow.Result{}
	for _, mode := range []flow.Mode{flow.Schematic, flow.Conventional, flow.Optimized} {
		r, err := flow.RunContext(context.Background(), tech, bm, mode, p)
		if err != nil {
			log.Fatal(err)
		}
		results[mode] = r
		fmt.Printf("%-12s: %8s, %d SPICE runs\n", mode, r.Runtime.Round(1e6), r.Sims)
	}
	opt := results[flow.Optimized]

	// The primitive choices Algorithm 1 made.
	fmt.Println("\nPer-primitive optimization (Algorithm 1):")
	for name, pr := range opt.PrimResults {
		best := pr.Best()
		fmt.Printf("  %-5s %-24s cost %5.1f  (%d options, %d sims)\n",
			name, best.Layout.Config.ID(), best.Cost,
			len(pr.AllOptions), pr.TotalSims())
	}

	// The placement and global routes (Fig. 6(b)).
	fmt.Println("\nPlacement and global routing:")
	fmt.Printf("  floorplan %d x %d nm, HPWL %d nm\n",
		opt.Placement.BBox.W(), opt.Placement.BBox.H(), opt.Placement.HPWL)
	for name, nr := range opt.Routing.Nets {
		if nr.TotalLength() == 0 {
			continue
		}
		fmt.Printf("  net %-5s: %5d nm on %s, %d vias\n",
			name, nr.TotalLength(), tech.Metals[nr.DominantLayer()].Name, nr.Vias)
	}

	// The detailed-router requirements (Fig. 6(c)): parallel route
	// counts per net and symmetric pairs from Algorithm 2.
	fmt.Println("\nPort optimization (Algorithm 2) routing constraints:")
	fmt.Print(indent(opt.RouterConstraints(bm), "  "))

	// Table VI's OTA rows.
	tb := report.New("\n5T OTA comparison (Table VI)",
		"Metric", "Schematic", "Conventional", "This work")
	for _, m := range bm.MetricOrder {
		tb.Add(fmt.Sprintf("%s (%s)", m, bm.MetricUnit[m]),
			fmt.Sprintf("%.5g", results[flow.Schematic].Metrics[m]),
			fmt.Sprintf("%.5g", results[flow.Conventional].Metrics[m]),
			fmt.Sprintf("%.5g", results[flow.Optimized].Metrics[m]))
	}
	fmt.Print(tb.String())
}

func indent(s, pre string) string {
	out := ""
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out += pre + ln + "\n"
	}
	return out
}
