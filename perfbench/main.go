// Command perfbench is primopt's benchmark. It drives the layout flow
// and the daemon from outside, closed loop, on one of three workloads:
//
//	vco_cold    1 client: the 8-stage RO-VCO optimized flow, cold cache
//	batch_cold  2 clients: the four small circuits' optimized flow, cold
//	serve_warm  2 clients: /v1/generate against an in-process daemon,
//	            served from its warm evaluation cache
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) prints the per-layer metrics, taken from the stage
// spans and counters the program emits plus the benchmark's own spans
// around its calls. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Run it through
// run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload batch_cold --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// endToEnd lists the metrics an untraced run prints, in
// BENCHMARK.json's order. op_p90_ms is not among them: vco_cold never
// has ten ops beyond a p90, so the tail is printed in the report lines
// where a run has it, and gated nowhere.
var endToEnd = []struct{ name, unit string }{
	{"op_p50_ms", "ms"},
	{"ops_per_s", "ops/s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"quality_gap_pct", "%"},
}

// setupReps is how many times a run repeats its set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of each timed phase in seconds")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for cache directories and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := startEnv()
	b := &bench{
		tech:   pdk.Default(),
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		dir:    dir,
		log:    stderr,
		gaps:   map[string]float64{},
		traced: *traceOn == 1,
	}
	if b.traced {
		b.spans = newSpanLog()
	}
	w, err := newWorkload(*name, b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, report, err := b.run(context.Background(), w)
	if cerr := w.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := b.spans.writeJSONL(path, env.meta()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		report = append(report, "spans: "+path)
	}
	envLine, err := json.Marshal(env.finish())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range report {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "env: %s\n", envLine)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is the state one run shares across its workload and phases.
type bench struct {
	tech   *pdk.Tech
	seed   int64
	dur    time.Duration
	dir    string
	log    io.Writer
	traced bool
	spans  *spanLog // nil in untraced runs

	attempted atomic.Int64
	failed    atomic.Int64
	opSeq     atomic.Int64
	runErrs   []string // run-level check failures

	mu   sync.Mutex
	gaps map[string]float64 // input key -> quality gap (%)
}

// workload is one traffic mix. Ops index their input cycle with op.i.
type workload interface {
	clients() int
	// setup runs one set-up repetition under the given span; the last
	// one leaves the state the timed phases use.
	setup(ctx context.Context, sp *obs.Span) error
	// op runs one timed-phase op and checks its output.
	op(ctx context.Context, o *op) error
	// beginPhase prepares a timed phase and returns the trace whose
	// counter deltas over the phase belong to it (nil when every op
	// reports its own counters).
	beginPhase(traced bool) *obs.Trace
	// endPhase ends it; the workload checks what it measured.
	endPhase(ph *phase)
	// layers adds the workload's own per-layer metrics after the
	// traced phase (layer calls timed from the benchmark).
	layers(ctx context.Context, m map[string]float64)
	close() error
}

func workloadNames() []string { return []string{"vco_cold", "batch_cold", "serve_warm"} }

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "vco_cold":
		return newVCOCold(b), nil
	case "batch_cold":
		return newBatchCold(b), nil
	case "serve_warm":
		return newServeWarm(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), ", "))
}

// failf records a run-level check failure; the run reports correct=false.
func (b *bench) failf(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	b.mu.Lock()
	b.runErrs = append(b.runErrs, msg)
	b.mu.Unlock()
	fmt.Fprintln(b.log, "perfbench: check failed:", msg)
}

// noteGap records an input's quality gap the first time it is seen.
func (b *bench) noteGap(key string, gap float64) {
	b.mu.Lock()
	if _, ok := b.gaps[key]; !ok {
		b.gaps[key] = gap
	}
	b.mu.Unlock()
}

// run executes the set-up repetitions and the timed phase(s) and
// assembles the result and the human-readable report lines.
func (b *bench) run(ctx context.Context, w workload) (*result, []string, error) {
	var setups []float64
	for r := 0; r < setupReps; r++ {
		sp := b.spans.start("bench.setup")
		sp.SetAttr("rep", r)
		t0 := time.Now()
		err := w.setup(ctx, sp)
		setups = append(setups, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	setupS := median(setups)
	report := []string{fmt.Sprintf("set-up: %d repetitions, median %.3f s (%s)", setupReps, setupS, formatList(setups, "%.3f"))}

	ref := b.phase(ctx, w, false)
	report = append(report, ref.describe("timed"))
	m := map[string]metric{}
	if !b.traced {
		p90, beyond, ok := tail(ref.lats, 0.9)
		if ok {
			report = append(report, fmt.Sprintf("tail: op_p90_ms %.3f (%d ops beyond it)", ms(p90), beyond))
		} else {
			report = append(report, fmt.Sprintf("tail: none reported (%d ops; a p90 needs %d beyond it)", len(ref.lats), minBeyond))
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, nil, err
		}
		vals := map[string]float64{
			"op_p50_ms":       ms(median(durs(ref.lats))),
			"ops_per_s":       float64(len(ref.lats)) / ref.elapsed.Seconds(),
			"setup_s":         setupS,
			"peak_rss_mib":    rss,
			"quality_gap_pct": b.quality(ref),
		}
		for _, e := range endToEnd {
			m[e.name] = metric{vals[e.name], e.unit}
		}
	} else {
		tp := b.phase(ctx, w, true)
		report = append(report, tp.describe("traced"))
		lm, selfLines, err := b.layerMetrics(ref, tp)
		if err != nil {
			return nil, nil, err
		}
		report = append(report, selfLines...)
		w.layers(ctx, lm)
		for _, l := range layerTable {
			m[l.name] = metric{lm[l.name], l.unit}
		}
		report = append(report, layerReport(m)...)
	}
	for _, e := range b.runErrs {
		report = append(report, "check failed: "+e)
	}
	res := &result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   m,
	}
	res.Correct = res.Failed == 0 && len(b.runErrs) == 0
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, report, nil
}

// op is one operation of a phase.
type op struct {
	id     int64
	i      int // position in the phase; the workload maps it onto its input cycle
	client int
	traced bool
	parent *obs.Span // the phase span (nil when untraced)

	input string        // input key, for the quality gap
	start time.Time     // when the entry call began
	lat   time.Duration // the entry call's wall time
	// Filled by traced ops: the program's own spans for this op, with
	// StartUS relative to base, and the op's own counters.
	sub      []obs.SpanRecord
	base     time.Time
	counters map[string]int64
}

// timed runs fn as the op's entry call: its wall time is the op's
// latency, and in a traced phase it becomes a bench.op span.
func (o *op) timed(fn func()) {
	sp := o.parent.Start("bench.op")
	sp.SetAttr("op", o.id)
	sp.SetAttr("client", o.client)
	sp.SetAttr("input", o.input)
	o.start = time.Now()
	fn()
	o.lat = time.Since(o.start)
	sp.End()
}

// phase is what one timed phase measured.
type phase struct {
	traced   bool
	lats     []time.Duration // successful ops' latencies
	done     int             // ops attempted in the phase
	failed   int
	elapsed  time.Duration
	inputs   map[string]bool // inputs of the successful ops
	ops      []*op           // traced phases keep their ops for the span dump
	counters map[string]int64
	rt       rtDelta
}

func (p *phase) describe(label string) string {
	return fmt.Sprintf("%s: %d ops in %.3f s, %d failed, op_p50_ms %.3f", label, p.done, p.elapsed.Seconds(), p.failed, ms(median(durs(p.lats))))
}

// phase runs the workload's clients closed loop: each sends its next
// op when the previous one returns, until the phase has lasted b.dur.
// Ops under way at the deadline finish and count.
func (b *bench) phase(ctx context.Context, w workload, traced bool) *phase {
	ph := &phase{traced: traced, inputs: map[string]bool{}}
	sink := w.beginPhase(traced)
	before := counterValues(sink)
	rt0 := readRuntime()
	var parent *obs.Span
	if traced {
		parent = b.spans.start("bench.phase")
		parent.SetAttr("phase", "traced")
	}
	start := time.Now()
	more := func(int) bool { return time.Since(start) < b.dur }
	b.drive(ctx, w.clients(), parent, traced, more, w.op, func(o *op, err error) {
		ph.done++
		if err != nil {
			ph.failed++
		} else {
			ph.lats = append(ph.lats, o.lat)
			ph.inputs[o.input] = true
		}
		if traced {
			ph.ops = append(ph.ops, o)
		}
	})
	ph.elapsed = time.Since(start)
	parent.End()
	ph.rt = readRuntime().sub(rt0)
	ph.counters = subCounters(counterValues(sink), before)
	for _, o := range ph.ops {
		addCounters(ph.counters, o.counters)
		b.spans.add(o)
	}
	w.endPhase(ph)
	return ph
}

// drive runs ops closed loop on the given number of clients: a client
// takes the next op index while more(i) holds, runs the op, counts it
// as attempted and, on error, as failed, and reports it to done (called
// under a lock; nil ignores it).
func (b *bench) drive(ctx context.Context, clients int, parent *obs.Span, traced bool, more func(i int) bool, fn func(context.Context, *op) error, done func(*op, error)) {
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				ok := more(i)
				mu.Unlock()
				if !ok {
					return
				}
				o := &op{id: b.opSeq.Add(1), i: i, client: client, traced: traced, parent: parent}
				b.attempted.Add(1)
				err := fn(ctx, o)
				if err != nil {
					b.failed.Add(1)
					fmt.Fprintf(b.log, "perfbench: op %d (%s) failed: %v\n", o.id, o.input, err)
				}
				if done != nil {
					mu.Lock()
					done(o, err)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
}

// pass runs a fixed list of n ops over the given number of clients,
// spanned under parent. A failed op is counted and the pass goes on.
func (b *bench) pass(ctx context.Context, parent *obs.Span, clients, n int, fn func(context.Context, *op) error) {
	b.drive(ctx, clients, parent, false, func(i int) bool { return i < n }, fn, nil)
}

// quality is quality_gap_pct: the mean quality gap over the distinct
// inputs the phase completed.
func (b *bench) quality(p *phase) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(p.inputs))
	for k := range p.inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += b.gaps[k]
	}
	if len(keys) == 0 {
		return 0
	}
	return sum / float64(len(keys))
}

// qualityGap is the mean of |post − schematic| / |schematic| over the
// metrics in order, in percent.
func qualityGap(order []string, post, sch map[string]float64) (float64, error) {
	if len(order) == 0 {
		return 0, errors.New("no metrics to compare")
	}
	var sum float64
	for _, k := range order {
		s, ok := sch[k]
		if !ok || s == 0 {
			return 0, fmt.Errorf("schematic metric %s missing or zero", k)
		}
		p, ok := post[k]
		if !ok {
			return 0, fmt.Errorf("post-layout metric %s missing", k)
		}
		sum += math.Abs(p-s) / math.Abs(s)
	}
	return 100 * sum / float64(len(order)), nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail returns the q-quantile (nearest rank) of lats and how many
// samples lie beyond it; ok is false when fewer than minBeyond do.
func tail(lats []time.Duration, q float64) (time.Duration, int, bool) {
	n := len(lats)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond := n - 1 - idx
	return s[idx], beyond, beyond >= minBeyond
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// ms converts nanoseconds (a time.Duration or a float of one) to milliseconds.
func ms[T time.Duration | float64](d T) float64 { return float64(d) / 1e6 }

func formatList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, ", ")
}
