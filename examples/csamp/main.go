// The paper's motivating experiment (Fig. 2 and Table I): the
// common-source amplifier's wire-width RC trade-off.
//
// The drain net of a common-source stage trades resistance against
// capacitance: narrow wires cost gm (and bias current) through series
// resistance, wide wires cost bandwidth through capacitance, and the
// optimized width recovers schematic-level performance. This example
// regenerates both the circuit-level view (Fig. 2) and the
// primitive-level metrics behind it (Table I).
//
//	go run ./examples/csamp
package main

import (
	"context"
	"fmt"
	"log"

	"primopt/internal/paper"
	"primopt/internal/pdk"
)

func main() {
	tech := pdk.Default()

	fig2, err := paper.Fig2(context.Background(), tech)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig2.String())
	fmt.Println()

	t1, err := paper.Table1(context.Background(), tech)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(t1.String())
	fmt.Println()
	fmt.Println("Reading the shape: the optimized column tracks the schematic;")
	fmt.Println("narrow wires lose Gm and current to series resistance, wide")
	fmt.Println("wires pay capacitance (Cout) for marginal resistance gains.")
}
