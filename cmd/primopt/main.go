// Command primopt runs the hierarchical analog layout flow with
// optimized primitives on the built-in benchmark circuits, and
// regenerates the paper's tables.
//
// Usage:
//
//	primopt -circuit ota5t -mode all      # Table VI style comparison
//	primopt -table 3                      # reproduce a numbered table
//	primopt -table fig2                   # the motivating figure
//	primopt -table all                    # everything (slow)
//	primopt verify -circuit ota5t         # DRC/LVS the optimized layout
//	primopt verify -circuit rovco -mode all -format json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"primopt/internal/cellgen"
	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/fault"
	"primopt/internal/flow"
	"primopt/internal/layoutio"
	"primopt/internal/mc"
	"primopt/internal/paper"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/report"
)

// runOpts is what the CLI adds to its requests: the -cache-dir tier
// every run's cache opens, the robustness flags (a deterministic
// fault-injection spec and a per-stage deadline), and the files the
// optimized run writes (-svg, -constraints).
type runOpts struct {
	cacheDir  string
	cacheMax  int64
	faultSpec string
	faultSeed int64
	timeout   time.Duration
	svg, cons string
}

// registerFaultFlags registers the robustness flags the run and
// verify entry points share.
func registerFaultFlags(fs *flag.FlagSet, o *runOpts) {
	fs.StringVar(&o.faultSpec, "fault-spec", "",
		"deterministic fault injection: site:mode[@N[+]][~P],... "+
			"(sites: "+strings.Join(fault.Sites(), ", ")+"; modes: error, panic, delay=DURATION)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for probabilistic (~P) fault terms")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-stage deadline for flow stages (e.g. 30s; 0 = none)")
}

// printDegraded reports the elements a run completed without (the
// graceful-degradation ladder's fallbacks), so a fault-armed or
// flaky run is visibly partial rather than silently lossy.
func printDegraded(mode flow.Mode, degraded map[string]string) {
	if len(degraded) == 0 {
		return
	}
	keys := make([]string, 0, len(degraded))
	for k := range degraded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-12s degraded: %s (%s)\n", mode, k, degraded[k])
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "verify":
			os.Exit(runVerifyCmd(os.Args[2:]))
		case "checktrace":
			os.Exit(runCheckTrace(os.Args[2:]))
		case "tracecmp":
			os.Exit(runTraceCmp(os.Args[2:]))
		case "report":
			os.Exit(runReport(os.Args[2:]))
		case "cache":
			os.Exit(runCacheCmd(os.Args[2:]))
		case "serve":
			os.Exit(runServeCmd(os.Args[2:]))
		}
	}
	var req flow.Request
	var o runOpts
	flag.StringVar(&req.Circuit, "circuit", "", "benchmark circuit: csamp, ota5t, strongarm, rovco, telescopic")
	flag.StringVar(&req.Mode, "mode", "all", strings.Join(flow.ModeNames(), ", ")+", or all")
	table := flag.String("table", "", "paper artifact: fig2, 1..8, ablations, all")
	flag.IntVar(&req.Stages, "stages", 8, "RO-VCO stage count")
	flag.Int64Var(&req.Seed, "seed", 1, "placement seed")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "persistent evaluation cache directory (disk tier, shared safely across runs and PDKs)")
	flag.Int64Var(&o.cacheMax, "cache-max-bytes", 0, "disk-tier size bound in bytes (0 = default 1 GiB)")
	flag.IntVar(&req.SpiceWorkers, "workers", 0, "max concurrent SPICE evaluations per primitive (0 = default 8)")
	flag.IntVar(&req.PlaceReplicas, "place-replicas", 1, "independently seeded annealing replicas in the placer (deterministic reduction; results depend only on seed and replica count)")
	flag.StringVar(&o.svg, "svg", "", "write the optimized floorplan + routes as SVG to this file")
	flag.StringVar(&o.cons, "constraints", "", "write the detailed-router constraints of the optimized run to this file")
	mcRun := flag.Bool("mc", false, "run the Monte Carlo offset comparison across DP patterns")
	var of obsFlags
	registerObsFlags(flag.CommandLine, &of)
	registerFaultFlags(flag.CommandLine, &o)
	flag.Parse()

	finishObs, err := setupObs(of)
	if err != nil {
		fatal(err)
	}

	tech := pdk.Default()
	if err := tech.Validate(); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the flow context: solver inner loops
	// unwind promptly, and because finishObs still runs below, the
	// partial -trace file lands on disk anyway. A second signal falls
	// through to the default handler (hard kill).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var runErr error
	switch {
	case *mcRun:
		runErr = runMC(ctx, tech)
	case *table != "":
		runErr = runTables(ctx, tech, *table, req.Stages)
	case req.Circuit != "":
		runErr = runCircuit(ctx, tech, req, o)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if errors.Is(runErr, context.Canceled) && ctx.Err() != nil {
		runErr = fmt.Errorf("interrupted (%w)", runErr)
	}
	// Flush traces and profiles even when the run failed or was
	// interrupted, so partial traces are available for debugging.
	if err := finishObs(); err != nil {
		fmt.Fprintln(os.Stderr, "primopt: observability flush:", err)
	}
	if runErr != nil {
		fatal(runErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "primopt:", err)
	os.Exit(1)
}

// checkModes checks the request once per mode of its -mode flag —
// "all" stands for each of all, any other name for itself — before any
// run starts. It returns the checked request, whose Params are the
// same in every mode, and the modes.
func checkModes(req flow.Request, all []string) (flow.Request, []flow.Mode, error) {
	names := []string{req.Mode}
	if req.Mode == "all" {
		names = all
	}
	modes := make([]flow.Mode, len(names))
	for i, name := range names {
		req.Mode = name
		m, err := req.Check()
		if err != nil {
			return req, nil, err
		}
		modes[i] = m
	}
	return req, modes, nil
}

// run calls f with the flow params of a checked request in mode m —
// its knobs, the deadline and fault flags, and a fresh cache, on the
// -cache-dir tier when m evaluates primitives — and closes the cache
// after it, returning the cache for its stats. A fresh cache per run
// keeps the per-mode timings honest (no mode warms another mode's
// entries), while the disk tier, content-addressed, is shared across
// modes and runs.
func (o runOpts) run(req flow.Request, m flow.Mode, f func(flow.Params) error) (*evcache.Cache, error) {
	p := req.Params()
	p.StageTimeout = o.timeout
	if o.faultSpec != "" {
		inj, err := fault.New(o.faultSeed, o.faultSpec)
		if err != nil {
			return nil, err
		}
		p.Fault = inj
	}
	dir := o.cacheDir
	if !m.Optimizing() {
		dir = ""
	}
	c, err := evcache.Open(dir, o.cacheMax)
	if err != nil {
		return nil, fmt.Errorf("cache dir %s: %w", dir, err)
	}
	p.Optimize.Cache = c
	err = f(p)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return c, err
}

// runCircuit runs the request in its mode, or in every mode for
// -mode all, and prints the comparison table.
func runCircuit(ctx context.Context, tech *pdk.Tech, req flow.Request, o runOpts) error {
	req, modes, err := checkModes(req, flow.ModeNames())
	if err != nil {
		return err
	}
	bm, err := circuits.Build(tech, req.Circuit, req.Stages)
	if err != nil {
		return err
	}

	header := []string{"Metric (unit)"}
	for _, m := range modes {
		header = append(header, m.String())
	}
	tb := report.New(fmt.Sprintf("%s: %s", bm.Name, strings.Join(bm.MetricOrder, ", ")), header...)
	results := make([]*flow.Result, len(modes))
	for i, m := range modes {
		var r *flow.Result
		c, err := o.run(req, m, func(p flow.Params) (err error) {
			r, err = flow.RunContext(ctx, tech, bm, m, p)
			return err
		})
		if err != nil {
			return err
		}
		results[i] = r
		fmt.Printf("%-12s done in %s (%d SPICE runs)\n", m, r.Runtime.Round(1e6), r.Sims)
		printDegraded(m, r.Degraded)
		if line := cacheStatsLine(m, c); line != "" {
			fmt.Println(line)
		}
		if m != flow.Optimized {
			continue
		}
		if o.cons != "" {
			if err := os.WriteFile(o.cons, []byte(r.RouterConstraints(bm)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.cons)
		}
		if o.svg != "" && r.Placement != nil {
			svg, err := layoutio.WriteSVG(r.Placement, r.Routing, layoutio.SVGOptions{
				Title: fmt.Sprintf("%s (optimized flow)", bm.Name),
			})
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.svg, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", o.svg)
		}
	}
	for _, metric := range bm.MetricOrder {
		row := []interface{}{fmt.Sprintf("%s (%s)", metric, bm.MetricUnit[metric])}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.5g", r.Metrics[metric]))
		}
		tb.Add(row...)
	}
	fmt.Println()
	fmt.Print(tb.String())
	return nil
}

// cacheStatsLine renders the per-mode cache summary, or "" when the
// mode never exercised its cache (schematic and conventional runs
// evaluate no primitive) — an all-zero stats line for a mode that
// never consulted the cache is noise, not information.
func cacheStatsLine(m flow.Mode, c *evcache.Cache) string {
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		return ""
	}
	line := fmt.Sprintf("%-12s cache: %d hits / %d misses, %d entries (~%d KiB)",
		m, st.Hits, st.Misses, st.Entries, st.Bytes/1024)
	if st.DiskTier {
		line += fmt.Sprintf("; disk: %d hits / %d misses, %d entries in %d segments (~%d KiB)",
			st.DiskHits, st.DiskMisses, st.DiskEntries, st.DiskSegments, st.DiskBytes/1024)
	}
	return line
}

func runTables(ctx context.Context, tech *pdk.Tech, which string, stages int) error {
	type gen struct {
		name string
		f    func() (*report.Table, error)
	}
	gens := []gen{
		{"fig2", func() (*report.Table, error) { return paper.Fig2(ctx, tech) }},
		{"1", func() (*report.Table, error) { return paper.Table1(ctx, tech) }},
		{"2", func() (*report.Table, error) { return paper.Table2(ctx) }},
		{"3", func() (*report.Table, error) { return paper.Table3(ctx, tech) }},
		{"4", func() (*report.Table, error) { return paper.Table4(ctx, tech) }},
		{"5", func() (*report.Table, error) { return paper.Table5(ctx, tech) }},
		{"6", func() (*report.Table, error) {
			tb, results, err := paper.Table6(ctx, tech)
			if err == nil {
				for _, line := range paper.ShapeChecks(results) {
					tb.Note("%s", line)
				}
			}
			return tb, err
		}},
		{"7", func() (*report.Table, error) {
			tb, results, err := paper.Table7(ctx, tech, stages)
			if err == nil {
				for _, line := range paper.ShapeChecks(results) {
					tb.Note("%s", line)
				}
			}
			return tb, err
		}},
		{"8", func() (*report.Table, error) { return paper.Table8(ctx, tech, nil) }},
		{"ablations", func() (*report.Table, error) { return nil, runAblations(ctx, tech) }},
	}
	want := strings.ToLower(which)
	ran := false
	for _, g := range gens {
		if want != "all" && want != g.name {
			continue
		}
		ran = true
		tb, err := g.f()
		if err != nil {
			return fmt.Errorf("table %s: %w", g.name, err)
		}
		if tb != nil {
			fmt.Print(tb.String())
			fmt.Println()
		}
	}
	if !ran {
		return fmt.Errorf("unknown table %q", which)
	}
	return nil
}

func runAblations(ctx context.Context, tech *pdk.Tech) error {
	for _, f := range []func(context.Context, *pdk.Tech) (*report.Table, error){
		paper.AblationBinning, paper.AblationLDE,
		paper.AblationCurvature, paper.AblationReconcile,
	} {
		tb, err := f(ctx, tech)
		if err != nil {
			return err
		}
		fmt.Print(tb.String())
		fmt.Println()
	}
	return nil
}

// runMC prints the Monte Carlo offset comparison across the DP
// placement patterns (see internal/mc).
func runMC(ctx context.Context, tech *pdk.Tech) error {
	sz := primlib.Sizing{TotalFins: 960, L: tech.GateL}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
	cfgs := []cellgen.Config{
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABAB},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB},
	}
	stats, err := mc.CompareOffsets(ctx, tech, primlib.DiffPair, sz, bias, cfgs,
		mc.Params{Samples: 5000, Seed: 1})
	if err != nil {
		return err
	}
	tb := report.New("Monte Carlo: DP input offset by pattern (5000 samples)",
		"Config", "Systematic (uV)", "Sigma (uV)", "P99 |offset| (uV)")
	for _, st := range stats {
		tb.Add(st.Config.ID(),
			fmt.Sprintf("%+.1f", st.Systematic*1e6),
			fmt.Sprintf("%.1f", st.Sigma*1e6),
			fmt.Sprintf("%.1f", st.P99*1e6))
	}
	fmt.Print(tb.String())
	return nil
}
