// Observability surface of the primopt CLI: the -trace/-metrics/-v
// flags install a process-wide obs.Trace, the one a run reports into
// when its context carries no trace of its own (obs.From); the
// profiling flags hook the standard pprof machinery; and the
// checktrace subcommand validates an exported trace (used by CI to
// keep the span taxonomy honest).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/obs"
	"primopt/internal/obs/analyze"
	"primopt/internal/obs/telemetry"
)

// obsFlags carries the observability flag values from main.
type obsFlags struct {
	trace      string // JSONL trace output path
	metrics    bool   // print the end-of-run metrics table
	verbose    bool   // live stage lines on stderr as spans end
	telemetry  string // serve the live telemetry surface on this address
	pprofAddr  string // serve net/http/pprof on this address
	cpuprofile string // write a CPU profile here
	memprofile string // write a heap profile here
}

// registerObsFlags adds the shared observability flags to a flag set.
func registerObsFlags(fs *flag.FlagSet, f *obsFlags) {
	fs.StringVar(&f.trace, "trace", "", "write the run's span/metric trace as JSONL to this file")
	fs.BoolVar(&f.metrics, "metrics", false, "print the end-of-run metrics table to stderr")
	fs.BoolVar(&f.verbose, "v", false, "print live stage timings to stderr as spans finish")
	fs.StringVar(&f.telemetry, "telemetry", "",
		"serve live telemetry (/metrics, /spans, /healthz, /debug/pprof) on this address (e.g. :9187; :0 picks a free port)")
	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this file")
}

// metaClock stamps trace metadata; a package variable so tests can
// pin the timestamp.
var metaClock = time.Now

// buildCommit resolves the commit the binary was built from: explicit
// env overrides first (CI exports GITHUB_SHA; PRIMOPT_COMMIT wins for
// local pinning), then the VCS stamp Go embeds into module builds.
// Empty when nothing is known — the field is omitted, never guessed.
func buildCommit() string {
	for _, key := range []string{"PRIMOPT_COMMIT", "GITHUB_SHA"} {
		if v := os.Getenv(key); v != "" {
			return v
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// buildMeta stamps the run context every exported trace carries.
func buildMeta() obs.Meta {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return obs.Meta{
		Schema:    obs.TraceSchema,
		GoVersion: runtime.Version(),
		Host:      host,
		StartTime: metaClock().UTC().Format(time.RFC3339),
		Commit:    buildCommit(),
	}
}

// setupObs installs the process-wide trace and profiling hooks. The
// returned function flushes trace, metrics and profiles; call it once
// after the run (including on the error path, so partial traces still
// land on disk).
func setupObs(f obsFlags) (func() error, error) {
	enabled := f.trace != "" || f.metrics || f.verbose || f.telemetry != ""
	var tr *obs.Trace
	if enabled {
		tr = obs.New()
		tr.SetMeta(buildMeta())
		tr.SetMemAttribution(true)
		if f.verbose {
			tr.OnSpanEnd(liveStageLine)
		}
		obs.SetDefault(tr)
	}
	var telemetrySrv *telemetry.Server
	if f.telemetry != "" {
		srv, err := telemetry.Start(f.telemetry, tr)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		telemetrySrv = srv
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s\n", srv.Addr())
	}
	if f.cpuprofile != "" {
		cf, err := os.Create(f.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, err
		}
	}
	if f.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(f.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "primopt: pprof server:", err)
			}
		}()
	}

	finish := func() error {
		if f.cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if f.memprofile != "" {
			mf, err := os.Create(f.memprofile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				return err
			}
			if err := mf.Close(); err != nil {
				return err
			}
		}
		if !tr.Enabled() {
			return nil
		}
		if f.trace != "" {
			tf, err := os.Create(f.trace)
			if err != nil {
				return err
			}
			if err := tr.WriteJSONL(tf); err != nil {
				tf.Close()
				return err
			}
			if err := tf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote trace to %s\n", f.trace)
		}
		if f.metrics {
			fmt.Fprint(os.Stderr, tr.MetricsTable())
		}
		// The telemetry surface stays up through the flushes above so a
		// watcher can scrape final numbers, then comes down last.
		if err := telemetrySrv.Close(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		return nil
	}
	return finish, nil
}

// liveStageLine prints one line per finished flow-level span — the
// coarse stages only, so -v stays readable on deep runs.
func liveStageLine(s *obs.Span) {
	name := s.Name()
	if !strings.HasPrefix(name, "flow.") {
		return
	}
	extra := ""
	if v := s.Attr("circuit"); v != nil {
		extra = fmt.Sprintf(" circuit=%v mode=%v", v, s.Attr("mode"))
	}
	fmt.Fprintf(os.Stderr, "[obs] %-18s %10s%s\n", name, s.Dur().Round(time.Microsecond), extra)
}

func attrString(attrs map[string]any, key string) string {
	if v, ok := attrs[key].(string); ok {
		return v
	}
	return ""
}

// Stage spans every layout-mode flow.run must contain; checktrace
// additionally requires the optimizing-mode spans and solver metrics
// when the trace holds an optimized or manual run.
var (
	requiredStageSpans = []string{
		"flow.run", "flow.schematic_op", "flow.primitives",
		"flow.place", "flow.route", "flow.assemble", "flow.eval",
	}
	requiredOptimizedSpans = []string{
		"flow.prim", "flow.portopt", "optimize.select", "optimize.tune",
		"place.anneal", "route.net", "portopt.constraints", "portopt.reconcile",
	}
	requiredMetricPrefixes = []string{
		"spice.", "place.anneal.", "route.", "optimize.",
	}
)

// evalPointWork names the attributes in which each eval.point records
// the work of its transient windows.
var evalPointWork = []string{"tran_steps", "newton_iters", "factorizations"}

// checkEvalPoints checks the attribution of RO-VCO evaluation: the
// flow.eval stage of a rovco flow.run sweeps its tuning curve, one
// eval.point child per control voltage, each inside the stage's
// window (give or take the self-time rule's wire-format tolerance)
// and recording its work (evalPointWork). A fault-armed run may
// cancel the points after a failing one before they start, so there
// only the window rule applies.
func checkEvalPoints(t *analyze.Tree, faulted bool) []string {
	const tolUS = 100
	want := circuits.VCOCurveVoltages()
	var problems []string
	var walk func(n *analyze.Node)
	walk = func(n *analyze.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Name != "flow.run" || attrString(n.Attrs, "circuit") != "rovco" {
			return
		}
		for _, ev := range n.Children {
			if ev.Name != "flow.eval" {
				continue
			}
			count := make([]int, len(want))
			for _, p := range ev.Children {
				if p.Name != "eval.point" {
					continue
				}
				if p.StartUS < ev.StartUS-tolUS || p.EndUS() > ev.EndUS()+tolUS {
					problems = append(problems, fmt.Sprintf(
						"eval.point (id %d) runs outside its flow.eval (id %d) window", p.ID, ev.ID))
				}
				for _, k := range evalPointWork {
					if _, ok := p.Attrs[k].(float64); !ok && !faulted {
						problems = append(problems, fmt.Sprintf(
							"eval.point (id %d) does not record %s", p.ID, k))
					}
				}
				v, _ := p.Attrs["vctrl"].(float64)
				if i := slices.Index(want, v); i >= 0 {
					count[i]++
				} else {
					problems = append(problems, fmt.Sprintf(
						"eval.point (id %d) has vctrl %v, not a control voltage of the RO-VCO curve", p.ID, p.Attrs["vctrl"]))
				}
			}
			for i, c := range count {
				if c != 1 && (c > 1 || !faulted) {
					problems = append(problems, fmt.Sprintf(
						"flow.eval (id %d) of an RO-VCO run has %d eval.point children at vctrl %v, want 1", ev.ID, c, want[i]))
				}
			}
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return problems
}

// runCheckTrace implements `primopt checktrace <file>`: parse the
// JSONL trace and assert the span taxonomy and metric families the
// instrumented flow is supposed to emit. Exit status 0 means the
// trace is structurally sound.
func runCheckTrace(args []string) int {
	fs := flag.NewFlagSet("checktrace", flag.ExitOnError)
	requireWarm := fs.Bool("require-warm", false,
		"assert the trace is a fully warm disk-cache replay: spice.decks == 0 and evcache.disk_hits > 0")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: primopt checktrace [-require-warm] <trace.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)
	tf, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt:", err)
		return 1
	}
	defer tf.Close()
	d, err := obs.ReadJSONL(tf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "primopt: checktrace:", err)
		return 1
	}

	var problems []string
	// Trace metadata: every trace the instrumented CLI writes carries a
	// meta record attributing the measurement to a build and host; a
	// trace without one (or with garbage fields) cannot be compared
	// against another run, which is the whole point of exporting it.
	if d.Meta == nil {
		problems = append(problems, "missing meta record (trace predates schema 1 or was written without SetMeta)")
	} else {
		if d.Meta.Schema != obs.TraceSchema {
			problems = append(problems, fmt.Sprintf("meta schema %d != supported schema %d", d.Meta.Schema, obs.TraceSchema))
		}
		if d.Meta.GoVersion == "" {
			problems = append(problems, "meta missing go_version")
		}
		if d.Meta.Host == "" {
			problems = append(problems, "meta missing host")
		}
		if d.Meta.StartTime == "" {
			problems = append(problems, "meta missing start_time")
		} else if _, err := time.Parse(time.RFC3339, d.Meta.StartTime); err != nil {
			problems = append(problems, fmt.Sprintf("meta start_time %q is not RFC3339: %v", d.Meta.StartTime, err))
		}
	}
	for _, name := range requiredStageSpans {
		if d.Span(name) == nil {
			problems = append(problems, fmt.Sprintf("missing required span %q", name))
		}
	}
	// A fault-armed trace (fault.injected > 0) keeps the stage
	// taxonomy, the structural rules, and the degraded-accounting
	// rule, but legitimately violates the clean-run guarantees:
	// injected failures cut optimization short (no tuning spans), and
	// killed replicas emit no spans. Those rules are gated off below.
	faulted := false
	if m := d.Metric("fault.injected"); m != nil && m.Value > 0 {
		faulted = true
		fmt.Fprintln(os.Stderr, "primopt: checktrace: fault-armed trace, clean-run rules relaxed")
	}
	optimizing := false
	for _, root := range d.SpansNamed("flow.run") {
		m := attrString(root.Attrs, "mode")
		if m == "optimized" || m == "manual" {
			optimizing = true
		}
	}
	if optimizing && !faulted {
		for _, name := range requiredOptimizedSpans {
			if d.Span(name) == nil {
				problems = append(problems, fmt.Sprintf("missing optimizing-mode span %q", name))
			}
		}
		for _, prefix := range requiredMetricPrefixes {
			found := false
			for _, m := range d.Metrics {
				if strings.HasPrefix(m.Name, prefix) {
					found = true
					break
				}
			}
			if !found {
				problems = append(problems, fmt.Sprintf("no metric with prefix %q", prefix))
			}
		}
	}
	// Replica accounting: every placement run must declare its replica
	// count, the place.replicas counter must equal the sum of those
	// declarations, and each replica span must report the best cost it
	// entered into the reduction.
	anneals := d.SpansNamed("place.anneal")
	if faulted {
		anneals = nil
	}
	var wantReplicas float64
	for _, s := range anneals {
		v, ok := s.Attrs["replicas"].(float64)
		if !ok {
			problems = append(problems, fmt.Sprintf("place.anneal span (id %d) missing replicas attr", s.ID))
			continue
		}
		wantReplicas += v
	}
	if len(anneals) > 0 {
		var got float64
		if m := d.Metric("place.replicas"); m != nil {
			got = m.Value
		}
		if got != wantReplicas {
			problems = append(problems, fmt.Sprintf(
				"place.replicas (%.0f) != configured replica count (%.0f) summed over place.anneal spans", got, wantReplicas))
		}
		reps := d.SpansNamed("place.replica")
		if float64(len(reps)) != wantReplicas {
			problems = append(problems, fmt.Sprintf(
				"place.replica spans (%d) != configured replica count (%.0f)", len(reps), wantReplicas))
		}
		for _, s := range reps {
			if _, ok := s.Attrs["best_cost"]; !ok {
				problems = append(problems, fmt.Sprintf("place.replica span (id %d) missing best_cost attr", s.ID))
			}
		}
	}

	// Degradation accounting: a CI trace comes from a healthy build,
	// so every graceful-degradation fallback the flow recorded must be
	// explained by a deterministic fault injection. flow.degraded
	// without any fault.injected means the flow silently lost work on
	// a clean run — exactly the regression this rule exists to catch.
	var degradedCount, injectedCount float64
	if m := d.Metric("flow.degraded"); m != nil {
		degradedCount = m.Value
	}
	if m := d.Metric("fault.injected"); m != nil {
		injectedCount = m.Value
	}
	if degradedCount > 0 && injectedCount == 0 {
		problems = append(problems, fmt.Sprintf(
			"flow.degraded (%.0f) with fault.injected absent: flow degraded on a clean run", degradedCount))
	}

	problems = append(problems, checkEvalPoints(analyze.BuildTree(d), faulted)...)

	// Solver fast-path accounting: a factorization can only be reused
	// inside a Newton iteration (DC or transient) or an AC point solve,
	// and an iteration can only be bypassed if it is a Newton iteration
	// in the first place. Counters exceeding those bounds mean the
	// solver double-counted its fast path — the metrics would overstate
	// how much work the reuse machinery actually saved. The bounds hold
	// on fault-armed traces too: an aborted analysis stops emitting
	// both sides of each inequality together.
	metricVal := func(name string) float64 {
		if m := d.Metric(name); m != nil {
			return m.Value
		}
		return 0
	}
	newtonIters := metricVal("spice.dc.newton_iters") + metricVal("spice.tran.newton_iters")
	if reused := metricVal("spice.factor.reused"); reused > newtonIters+metricVal("spice.ac.points") {
		problems = append(problems, fmt.Sprintf(
			"spice.factor.reused (%.0f) > spice.dc.newton_iters + spice.tran.newton_iters + spice.ac.points (%.0f): more pivot reuses than solves that could host one",
			reused, newtonIters+metricVal("spice.ac.points")))
	}
	if bypassed := metricVal("spice.newton.bypassed"); bypassed > newtonIters {
		problems = append(problems, fmt.Sprintf(
			"spice.newton.bypassed (%.0f) > spice.dc.newton_iters + spice.tran.newton_iters (%.0f): more bypassed iterations than Newton iterations",
			bypassed, newtonIters))
	}

	// Structural sanity: every non-root span's parent must exist.
	ids := map[int64]bool{}
	for _, s := range d.Spans {
		ids[s.ID] = true
	}
	for _, s := range d.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			problems = append(problems, fmt.Sprintf("span %q (id %d) has unknown parent %d", s.Name, s.ID, s.Parent))
		}
	}

	// Warm-replay gate (-require-warm): the persistent cache's success
	// metric is that a second run of a benchmark against a warm
	// -cache-dir solves ZERO SPICE decks — every primitive evaluation
	// is served from the disk tier. A trace that solved any deck, or
	// that never recorded a disk hit, is not the warm replay it claims
	// to be.
	if *requireWarm {
		if decks := metricVal("spice.decks"); decks != 0 {
			problems = append(problems, fmt.Sprintf(
				"-require-warm: spice.decks = %.0f, want 0 (warm run must serve every evaluation from the disk tier)", decks))
		}
		if hits := metricVal("evcache.disk_hits"); hits <= 0 {
			problems = append(problems, "-require-warm: evcache.disk_hits = 0: the run never read the disk tier")
		}
	}

	// Timing sanity: no span may have negative self-time — children
	// whose wall-clock union exceeds the parent's own duration. The
	// union (not the sum) is compared, so legitimately concurrent
	// children never trip this; the tolerance absorbs the microsecond
	// truncation of the wire format.
	problems = append(problems, analyze.SelfTimeViolations(analyze.BuildTree(d), 100)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "primopt: checktrace:", p)
		}
		return 1
	}
	fmt.Printf("checktrace: %s ok (%d spans, %d metrics)\n", path, len(d.Spans), len(d.Metrics))
	return 0
}
