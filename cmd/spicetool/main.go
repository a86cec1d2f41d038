// Command spicetool parses and runs a SPICE deck (the subset
// spice.ParseDeck reads: elements, .subckt, .param, .op/.dc/.ac dec|lin/.tran
// and .measure) on the built-in simulator and prints the operating
// point and measure results.
//
// Usage:
//
//	spicetool deck.sp
//	echo "..." | spicetool -
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"primopt/internal/pdk"
	"primopt/internal/spice"
	"primopt/internal/units"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: spicetool <deck.sp | ->")
		os.Exit(2)
	}
	var src []byte
	var err error
	if os.Args[1] == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(os.Args[1])
	}
	if err != nil {
		fatal(err)
	}

	tech := pdk.Default()
	res, deck, err := spice.RunSourceCtx(context.Background(), tech, string(src))
	if err != nil {
		fatal(err)
	}
	if deck.Title != "" {
		fmt.Printf("* %s\n", deck.Title)
	}
	fmt.Println(deck.Netlist.Stats())

	if res.OP != nil {
		fmt.Println("\nOperating point:")
		nets := deck.Netlist.Nets()
		sort.Strings(nets)
		for _, n := range nets {
			if n == "0" {
				continue
			}
			fmt.Printf("  V(%s) = %sV\n", n, units.Format(res.OP.Volt(n), 5))
		}
		devs := res.OP.Devices()
		if len(devs) > 0 {
			fmt.Println("\nDevices:")
			for _, d := range devs {
				fmt.Printf("  %-10s %-10s Id=%sA  Vgs=%sV Vds=%sV  gm=%sS gds=%sS\n",
					d.Name, d.Region,
					units.Format(d.Id, 4), units.Format(d.Vgs, 3), units.Format(d.Vds, 3),
					units.Format(d.Gm, 3), units.Format(d.Gds, 3))
			}
		}
	}
	if res.DC != nil {
		fmt.Printf("\nDC sweep of %s: %d points, %s .. %s\n",
			res.DC.Source, len(res.DC.Values),
			units.Format(res.DC.Values[0], 3),
			units.Format(res.DC.Values[len(res.DC.Values)-1], 3))
	}
	if res.AC != nil {
		fmt.Printf("\nAC sweep: %d points, %s .. %sHz\n",
			len(res.AC.Freqs),
			units.Format(res.AC.Freqs[0], 3),
			units.Format(res.AC.Freqs[len(res.AC.Freqs)-1], 3))
	}
	if res.Tran != nil {
		fmt.Printf("\nTransient: %d points to %ss\n",
			len(res.Tran.Times),
			units.Format(res.Tran.Times[len(res.Tran.Times)-1], 3))
	}
	if len(res.Measures) > 0 {
		fmt.Println("\nMeasures:")
		names := make([]string, 0, len(res.Measures))
		for n := range res.Measures {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s = %s\n", n, units.Format(res.Measures[n], 5))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spicetool:", err)
	os.Exit(1)
}
