package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/pdk"
	"primopt/internal/verify"
)

// runVerifyCmd implements the `primopt verify` subcommand: run the
// layout flow (no post-layout simulation) and report the DRC/LVS
// result. Exit status: 0 clean, 1 violations found, 2 usage or flow
// error.
func runVerifyCmd(args []string) int {
	// Every mode has a layout to verify but schematic.
	layoutModes := flow.ModeNames()[flow.Conventional:]
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var req flow.Request
	var o runOpts
	fs.StringVar(&req.Circuit, "circuit", "", "benchmark circuit: csamp, ota5t, strongarm, rovco, telescopic")
	fs.StringVar(&req.Mode, "mode", "optimized", strings.Join(layoutModes, ", ")+", or all")
	format := fs.String("format", "text", "output format: text or json")
	fs.IntVar(&req.Stages, "stages", 8, "RO-VCO stage count")
	fs.Int64Var(&req.Seed, "seed", 1, "placement seed")
	fs.IntVar(&req.PlaceReplicas, "place-replicas", 1, "independently seeded annealing replicas in the placer")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "persistent evaluation cache directory (disk tier)")
	var of obsFlags
	registerObsFlags(fs, &of)
	registerFaultFlags(fs, &o)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: primopt verify -circuit <name> [-mode m] [-format text|json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if req.Circuit == "" {
		fs.Usage()
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "primopt verify: unknown format %q\n", *format)
		return 2
	}
	req, modes, err := checkModes(req, layoutModes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt verify:", err)
		return 2
	}
	finishObs, err := setupObs(of)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt verify:", err)
		return 2
	}
	// Flush traces and close the telemetry listener on every exit path,
	// including violation and error returns.
	defer func() {
		if err := finishObs(); err != nil {
			fmt.Fprintln(os.Stderr, "primopt verify: observability flush:", err)
		}
	}()

	tech := pdk.Default()
	if err := tech.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "primopt verify:", err)
		return 2
	}
	bm, err := circuits.Build(tech, req.Circuit, req.Stages)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt verify:", err)
		return 2
	}

	// SIGINT/SIGTERM cancel the verification flow; the deferred
	// finishObs above still flushes partial traces.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	status := 0
	for _, m := range modes {
		var rep *verify.Report
		_, err := o.run(req, m, func(p flow.Params) (err error) {
			rep, err = flow.VerifyContext(ctx, tech, bm, m, p)
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "primopt verify: %s/%v: %v\n", bm.Name, m, err)
			return 2
		}
		if *format == "json" {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "primopt verify:", err)
				return 2
			}
			fmt.Println(string(data))
		} else {
			fmt.Printf("%-12s %s\n", m, rep.Summary())
			for _, v := range rep.Violations {
				fmt.Printf("  %s\n", v.String())
			}
		}
		if !rep.Clean() {
			status = 1
		}
	}
	return status
}
