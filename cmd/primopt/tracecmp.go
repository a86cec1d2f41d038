// Trace analytics subcommands: `primopt tracecmp` diffs two exported
// traces with per-span and per-counter deltas, critical paths, and a
// threshold regression verdict (exit 1 on regression), for finding
// the stage a change moved; `primopt report` renders one trace as a
// flame-style tree with self/cumulative times and a hotspot ranking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"primopt/internal/obs"
	"primopt/internal/obs/analyze"
)

func readTrace(path string) (*obs.Dump, error) {
	tf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	d, err := obs.ReadJSONL(tf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// runTraceCmp implements `primopt tracecmp a.jsonl b.jsonl`. Exit
// status: 0 no regression, 1 regression past the threshold, 2 usage
// or parse error.
func runTraceCmp(args []string) int {
	fs := flag.NewFlagSet("tracecmp", flag.ExitOnError)
	maxRegress := fs.String("max-regress", "20%", "tolerated per-span slowdown before failing (e.g. 20% or 0.2)")
	minUS := fs.Int64("min-us", 1000, "ignore span families whose baseline total is below this many microseconds")
	jsonOut := fs.Bool("json", false, "emit the full diff as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: primopt tracecmp [flags] <baseline.jsonl> <current.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	thresh, err := analyze.ParsePercent(*maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt tracecmp:", err)
		return 2
	}
	a, err := readTrace(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt tracecmp:", err)
		return 2
	}
	b, err := readTrace(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt tracecmp:", err)
		return 2
	}
	opt := analyze.Options{MaxRegress: thresh, MinUS: *minUS}
	td := analyze.DiffTraces(a, b)
	regs := td.Regressions(opt)

	if *jsonOut {
		payload := struct {
			*analyze.TraceDiff
			Regressions []analyze.Regression `json:"regressions"`
		}{td, regs}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, "primopt tracecmp:", err)
			return 2
		}
	} else {
		if err := td.Render(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "primopt tracecmp:", err)
			return 2
		}
		fmt.Println()
		if len(regs) == 0 {
			fmt.Printf("tracecmp: OK — no span family regressed more than %s (floor %dµs)\n", *maxRegress, *minUS)
		}
		for _, r := range regs {
			ratio := "new"
			if r.AUS > 0 {
				ratio = fmt.Sprintf("%.2fx", r.Ratio)
			}
			fmt.Printf("tracecmp: REGRESSION %s: %.3fms -> %.3fms (%s)\n",
				r.Name, float64(r.AUS)/1e3, float64(r.BUS)/1e3, ratio)
		}
	}
	if len(regs) > 0 {
		return 1
	}
	return 0
}

// runReport implements `primopt report trace.jsonl`: the span forest
// as an indented tree annotated with cumulative and self time, then
// the top-N hotspot families ranked by self time — where the wall
// clock actually went, as opposed to which stages contain it.
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	topN := fs.Int("top", 10, "number of hotspot span families to rank by self time")
	jsonOut := fs.Bool("json", false, "emit the aggregate statistics as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: primopt report [flags] <trace.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	d, err := readTrace(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt report:", err)
		return 2
	}
	tree := analyze.BuildTree(d)
	stats := tree.Aggregate()

	if *jsonOut {
		payload := struct {
			Meta  *obs.Meta          `json:"meta,omitempty"`
			Stats []analyze.SpanStat `json:"stats"`
		}{d.Meta, stats}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, "primopt report:", err)
			return 2
		}
		return 0
	}

	if d.Meta != nil {
		fmt.Printf("trace: %s %s on %s", fs.Arg(0), d.Meta.GoVersion, d.Meta.Host)
		if d.Meta.Commit != "" {
			fmt.Printf(" @%s", shortCommit(d.Meta.Commit))
		}
		fmt.Println()
	}
	var walk func(n *analyze.Node, depth int)
	walk = func(n *analyze.Node, depth int) {
		fmt.Printf("%s%s %.3fms (self %.3fms)%s\n",
			strings.Repeat("  ", depth), n.Name,
			float64(n.DurUS)/1e3, float64(n.SelfUS)/1e3, allocSuffix(n.Attrs))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range tree.Roots {
		walk(r, 0)
	}

	ranked := append([]analyze.SpanStat(nil), stats...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].SelfUS != ranked[j].SelfUS {
			return ranked[i].SelfUS > ranked[j].SelfUS
		}
		return ranked[i].Name < ranked[j].Name
	})
	if len(ranked) > *topN {
		ranked = ranked[:*topN]
	}
	fmt.Printf("\ntop %d by self time:\n", len(ranked))
	fmt.Printf("%-28s %8s %12s %12s %12s\n", "span", "count", "self_ms", "total_ms", "max_ms")
	for _, s := range ranked {
		fmt.Printf("%-28s %8d %12.3f %12.3f %12.3f\n",
			s.Name, s.Count, float64(s.SelfUS)/1e3, float64(s.TotalUS)/1e3, float64(s.MaxUS)/1e3)
	}

	path := analyze.CriticalPath(tree.LongestRoot())
	if len(path) > 0 {
		fmt.Println("\ncritical path:")
		for _, s := range path {
			fmt.Printf("  %s%s %.3fms (self %.3fms)\n",
				strings.Repeat("  ", s.Depth), s.Name, float64(s.DurUS)/1e3, float64(s.SelfUS)/1e3)
		}
	}
	return 0
}

func allocSuffix(attrs map[string]any) string {
	switch v := attrs["alloc_bytes"].(type) {
	case float64:
		if v >= 0 {
			return fmt.Sprintf(" alloc=%s", humanBytes(int64(v)))
		}
	}
	return ""
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func shortCommit(c string) string {
	if len(c) > 12 {
		return c[:12]
	}
	return c
}
