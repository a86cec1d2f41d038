package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/pdk"
)

// runCacheCmd implements the `primopt cache` subcommand family for
// managing a persistent evaluation cache directory:
//
//	primopt cache warm  -cache-dir d -circuit ota5t   # populate
//	primopt cache stats -cache-dir d                  # inspect
//	primopt cache gc    -cache-dir d -max-bytes N     # bound
//
// Exit status: 0 ok, 2 usage or operational error.
func runCacheCmd(args []string) int {
	if len(args) < 1 {
		cacheUsage()
		return 2
	}
	switch args[0] {
	case "warm":
		return runCacheWarm(args[1:])
	case "stats":
		return runCacheStats(args[1:])
	case "gc":
		return runCacheGC(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "primopt cache: unknown subcommand %q\n", args[0])
		cacheUsage()
		return 2
	}
}

func cacheUsage() {
	fmt.Fprintln(os.Stderr, `usage: primopt cache <warm|stats|gc> -cache-dir <dir> [flags]
  warm   run a benchmark against the directory so later runs replay it
  stats  print the disk tier's contents and counters
  gc     retire least-recently-used segments down to -max-bytes`)
}

// runCacheWarm populates a cache directory by running one benchmark
// flow against it — the fleet-sharing workflow: warm once, then every
// later run (any process, same PDK) replays the evaluations without
// solving a SPICE deck.
func runCacheWarm(args []string) int {
	fs := flag.NewFlagSet("cache warm", flag.ExitOnError)
	var req flow.Request // mode "": the optimized flow
	var o runOpts
	fs.StringVar(&o.cacheDir, "cache-dir", "", "persistent cache directory (required)")
	fs.StringVar(&req.Circuit, "circuit", "", "benchmark circuit to warm with (required)")
	fs.IntVar(&req.Stages, "stages", 8, "RO-VCO stage count")
	fs.Int64Var(&req.Seed, "seed", 1, "placement seed")
	fs.Int64Var(&o.cacheMax, "max-bytes", 0, "disk-tier size bound in bytes (0 = default 1 GiB)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.cacheDir == "" || req.Circuit == "" {
		fs.Usage()
		return 2
	}
	mode, err := req.Check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt cache warm:", err)
		return 2
	}
	tech := pdk.Default()
	if err := tech.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "primopt cache warm:", err)
		return 2
	}
	bm, err := circuits.Build(tech, req.Circuit, req.Stages)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt cache warm:", err)
		return 2
	}
	var r *flow.Result
	c, err := o.run(req, mode, func(p flow.Params) (err error) {
		r, err = flow.RunContext(context.Background(), tech, bm, mode, p)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt cache warm:", err)
		return 2
	}
	fmt.Printf("warmed %s with %s in %s (%d SPICE runs)\n", o.cacheDir, bm.Name, r.Runtime.Round(1e6), r.Sims)
	if line := cacheStatsLine(mode, c); line != "" {
		fmt.Println(line)
	}
	return 0
}

func runCacheStats(args []string) int {
	fs := flag.NewFlagSet("cache stats", flag.ExitOnError)
	dir := fs.String("cache-dir", "", "persistent cache directory (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fs.Usage()
		return 2
	}
	d, err := evcache.OpenDisk(*dir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt cache stats:", err)
		return 2
	}
	defer d.Close()
	st := d.Stats()
	fmt.Printf("cache %s: %d entries in %d segments, %d bytes (~%d KiB)\n",
		*dir, st.Entries, st.Segments, st.Bytes, st.Bytes/1024)
	return 0
}

func runCacheGC(args []string) int {
	fs := flag.NewFlagSet("cache gc", flag.ExitOnError)
	dir := fs.String("cache-dir", "", "persistent cache directory (required)")
	maxBytes := fs.Int64("max-bytes", 1<<30, "retire least-recently-used segments until the tier fits this many bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fs.Usage()
		return 2
	}
	d, err := evcache.OpenDisk(*dir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt cache gc:", err)
		return 2
	}
	defer d.Close()
	removed, remaining := d.GC(*maxBytes)
	fmt.Printf("cache %s: removed %d segments, %d bytes remain\n", *dir, removed, remaining)
	return 0
}
