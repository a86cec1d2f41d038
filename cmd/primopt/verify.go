package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"primopt/internal/flow"
	"primopt/internal/pdk"
)

// runVerifyCmd implements the `primopt verify` subcommand: run the
// layout flow (no post-layout simulation) and report the DRC/LVS
// result. Exit status: 0 clean, 1 violations found, 2 usage or flow
// error.
func runVerifyCmd(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	circuitName := fs.String("circuit", "", "benchmark circuit: csamp, ota5t, strongarm, rovco, telescopic")
	modeName := fs.String("mode", "optimized", "conventional, optimized, manual, or all")
	format := fs.String("format", "text", "output format: text or json")
	stages := fs.Int("stages", 8, "RO-VCO stage count")
	seed := fs.Int64("seed", 1, "placement seed")
	placeReplicas := fs.Int("place-replicas", 1, "independently seeded annealing replicas in the placer")
	cacheDir := fs.String("cache-dir", "", "persistent evaluation cache directory (disk tier)")
	var of obsFlags
	registerObsFlags(fs, &of)
	var ff faultFlags
	registerFaultFlags(fs, &ff)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: primopt verify -circuit <name> [-mode m] [-format text|json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *circuitName == "" {
		fs.Usage()
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "primopt verify: unknown format %q\n", *format)
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
	bm, err := buildCircuit(tech, *circuitName, *stages)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt verify:", err)
		return 2
	}

	modes := map[string]flow.Mode{
		"conventional": flow.Conventional,
		"optimized":    flow.Optimized,
		"manual":       flow.Manual,
	}
	var order []flow.Mode
	if *modeName == "all" {
		order = []flow.Mode{flow.Conventional, flow.Optimized, flow.Manual}
	} else {
		m, ok := modes[strings.ToLower(*modeName)]
		if !ok {
			fmt.Fprintf(os.Stderr, "primopt verify: unknown mode %q\n", *modeName)
			return 2
		}
		order = []flow.Mode{m}
	}

	// SIGINT/SIGTERM cancel the verification flow; the deferred
	// finishObs above still flushes partial traces.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	status := 0
	for _, m := range order {
		p := flow.Params{Seed: *seed}
		if err := ff.apply(&p); err != nil {
			fmt.Fprintln(os.Stderr, "primopt verify:", err)
			return 2
		}
		p.Place.Replicas = *placeReplicas
		if m == flow.Optimized || m == flow.Manual {
			p.CacheDir = *cacheDir
		}
		rep, err := flow.VerifyContext(ctx, tech, bm, m, p)
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
