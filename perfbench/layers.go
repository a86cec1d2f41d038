package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"primopt/internal/obs"
	"primopt/internal/obs/analyze"
)

// layer is one per-layer metric: its name and unit, and the stage
// span whose time it reports ("" when it is not a span time).
type layer struct {
	name, unit, span string
}

// layerTable lists every per-layer metric a traced run prints, in
// BENCHMARK.json's order. Values are per timed op unless a ratio.
// Metrics of a layer a workload never enters read 0 there.
var layerTable = []layer{
	{"circuits.eval_ms", "ms", "flow.eval"},
	{"circuits.eval_point_ms_p50", "ms", ""},
	{"circuits.eval_point_ms_max", "ms", ""},
	{"spice.decks", "count", ""},
	{"spice.unique_deck_ratio", "ratio", ""},
	{"spice.tran_steps", "count", ""},
	{"spice.tran_newton_iters", "count", ""},
	{"spice.newton_bypassed", "count", ""},
	{"spice.factor_reused", "count", ""},
	{"spice.tran_halvings", "count", ""},
	{"spice.dc_newton_iters", "count", ""},
	{"spice.ac_points", "count", ""},
	{"optimize.ms", "ms", "flow.primitives"},
	{"optimize.sims", "count", ""},
	{"optimize.repeat_ratio", "ratio", ""},
	{"primlib.sims", "count", ""},
	{"cellgen.layouts", "count", ""},
	{"extract.runs", "count", ""},
	{"evcache.hit_ratio", "ratio", ""},
	{"evcache.misses", "count", ""},
	{"evcache.disk_open_ms", "ms", ""},
	{"evcache.disk_pass_ms", "ms", ""},
	{"evcache.disk_misses", "count", ""},
	{"place.ms", "ms", "flow.place"},
	{"place.moves", "count", ""},
	{"place.accept_ratio", "ratio", ""},
	{"portopt.ms", "ms", "flow.portopt"},
	{"portopt.sims", "count", ""},
	{"verify.ms", "ms", "flow.verify"},
	{"serve.overhead_ms", "ms", ""},
	{"serve.shed", "count", ""},
	{"serve.errors", "count", ""},
	{"flow.retries", "count", ""},
	{"flow.degraded", "count", ""},
	{"runtime.alloc_mib", "MiB", ""},
	{"runtime.gc_cycles", "count", ""},
	{"runtime.gc_cpu_pct", "%", ""},
	{"obs.trace_overhead_pct", "%", ""},
}

// perOpCounters maps per-layer count metrics to the program counters
// they sum, normalized per timed op.
var perOpCounters = map[string][]string{
	"spice.decks":             {"spice.decks"},
	"spice.tran_steps":        {"spice.tran.steps"},
	"spice.tran_newton_iters": {"spice.tran.newton_iters"},
	"spice.newton_bypassed":   {"spice.newton.bypassed"},
	"spice.factor_reused":     {"spice.factor.reused"},
	"spice.tran_halvings":     {"spice.tran.halvings"},
	"spice.dc_newton_iters":   {"spice.dc.newton_iters"},
	"spice.ac_points":         {"spice.ac.points"},
	"optimize.sims":           {"optimize.sims.selection", "optimize.sims.tuning"},
	"primlib.sims":            {"primlib.sims"},
	"cellgen.layouts":         {"cellgen.layouts_generated"},
	"extract.runs":            {"extract.runs"},
	"evcache.misses":          {"evcache.misses"},
	"place.moves":             {"place.anneal.moves"},
	"portopt.sims":            {"portopt.sims"},
	"serve.shed":              {"serve.shed"},
	"serve.errors":            {"serve.errors"},
	"flow.retries":            {"flow.retries"},
	"flow.degraded":           {"flow.degraded"},
}

// ratio returns num/den, or whenEmpty when den is 0.
func ratio(num, den int64, whenEmpty float64) float64 {
	if den == 0 {
		return whenEmpty
	}
	return float64(num) / float64(den)
}

// counterLayers derives the counter-based per-layer metrics from the
// counter deltas of n timed ops.
func counterLayers(c map[string]int64, n int) map[string]float64 {
	m := map[string]float64{}
	for name, srcs := range perOpCounters {
		var sum int64
		for _, s := range srcs {
			sum += c[s]
		}
		m[name] = float64(sum) / float64(n)
	}
	// No deck solved means none was solved twice.
	m["spice.unique_deck_ratio"] = 1 - ratio(c["spice.duplicate_decks"], c["spice.decks"], 0)
	m["optimize.repeat_ratio"] = ratio(c["optimize.repeat_evals"], c["optimize.evals"], 0)
	m["evcache.hit_ratio"] = ratio(c["evcache.hits"], c["evcache.hits"]+c["evcache.misses"], 0)
	m["place.accept_ratio"] = ratio(c["place.anneal.accepted"], c["place.anneal.moves"], 0)
	return m
}

// layerMetrics computes the per-layer metrics every workload shares:
// stage-span times and counters from the traced phase, Go runtime
// figures from the untraced one (spans allocate), and the tracing
// overhead between the two. Workload-specific metrics start at 0.
// The report lines list the span names with the most self time.
func (b *bench) layerMetrics(ref, tp *phase) (map[string]float64, []string, error) {
	n := len(tp.lats)
	if n == 0 || len(ref.lats) == 0 {
		return nil, nil, fmt.Errorf("a timed phase completed no op")
	}
	m := counterLayers(tp.counters, n)
	for _, l := range layerTable {
		if _, ok := m[l.name]; !ok {
			m[l.name] = 0
		}
	}
	tree := analyze.BuildTree(&obs.Dump{Spans: b.spans.records()})
	stats := phaseAggregate(tree, "traced")
	totals := map[string]int64{}
	for _, st := range stats {
		totals[st.Name] = st.TotalUS
	}
	for _, l := range layerTable {
		if l.span != "" {
			m[l.name] = float64(totals[l.span]) / 1e3 / float64(n)
		}
	}
	nref := float64(len(ref.lats))
	m["runtime.alloc_mib"] = ref.rt.allocBytes / (1 << 20) / nref
	m["runtime.gc_cycles"] = ref.rt.gcCycles / nref
	m["runtime.gc_cpu_pct"] = 100 * ref.rt.gcCPU / ref.rt.totalCPU
	m["obs.trace_overhead_pct"] = 100 * (median(durs(tp.lats))/median(durs(ref.lats)) - 1)

	sort.Slice(stats, func(i, j int) bool { return stats[i].SelfUS > stats[j].SelfUS })
	report := []string{"self time per traced op, top spans:"}
	for i, st := range stats {
		if i == 8 {
			break
		}
		report = append(report, fmt.Sprintf("  %-28s %14.4f ms", st.Name, float64(st.SelfUS)/1e3/float64(n)))
	}
	return m, report, nil
}

// phaseAggregate folds the spans under the named bench.phase span by
// span name.
func phaseAggregate(t *analyze.Tree, phaseName string) []analyze.SpanStat {
	var roots []*analyze.Node
	for _, r := range t.Roots {
		if r.Name == "bench.phase" && r.Attrs["phase"] == phaseName {
			roots = append(roots, r)
		}
	}
	return (&analyze.Tree{Roots: roots}).Aggregate()
}

func layerReport(m map[string]metric) []string {
	out := []string{"per-layer metrics (per timed op unless a ratio):"}
	for _, l := range layerTable {
		out = append(out, fmt.Sprintf("  %-28s %14.4f %s", l.name, m[l.name].Value, l.unit))
	}
	return out
}

// counterValues snapshots a trace's counters (nil trace: none).
func counterValues(tr *obs.Trace) map[string]int64 {
	out := map[string]int64{}
	if tr == nil {
		return out
	}
	_, metrics := tr.Snapshot()
	for _, mr := range metrics {
		if mr.Kind == "counter" {
			out[mr.Name] = int64(mr.Value)
		}
	}
	return out
}

func subCounters(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func addCounters(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// rtDelta holds Go runtime figures over an interval.
type rtDelta struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var rtSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]rtmetrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtDelta{v(0), v(1), v(2), v(3)}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// spanLog is a traced run's span store: the benchmark's own spans in
// one trace, plus the program's spans of each traced op, hung under
// that op's bench.op span when the log is exported.
type spanLog struct {
	tr *obs.Trace
	t0 time.Time // the trace's clock origin

	mu      sync.Mutex
	imports []imported
}

type imported struct {
	op    int64
	base  time.Time // the instant the spans' StartUS counts from
	spans []obs.SpanRecord
}

func newSpanLog() *spanLog {
	return &spanLog{tr: obs.New(), t0: time.Now()}
}

// start opens a root span of the benchmark (nil-safe: an untraced run
// has no log and records nothing).
func (l *spanLog) start(name string) *obs.Span {
	if l == nil {
		return nil
	}
	return l.tr.Start(name)
}

// add files a traced op's program spans.
func (l *spanLog) add(o *op) {
	if l == nil || len(o.sub) == 0 {
		return
	}
	l.mu.Lock()
	l.imports = append(l.imports, imported{op: o.id, base: o.base, spans: o.sub})
	l.mu.Unlock()
}

// records merges the benchmark's spans with the imported ones: IDs are
// renumbered past the benchmark's, imported roots get their op's
// bench.op span as parent, and start times move onto the benchmark
// trace's clock.
func (l *spanLog) records() []obs.SpanRecord {
	spans, _ := l.tr.Snapshot()
	opSpan := map[int64]int64{}
	var maxID int64
	for _, s := range spans {
		if s.ID > maxID {
			maxID = s.ID
		}
		if id, ok := s.Attrs["op"].(int64); ok && s.Name == "bench.op" {
			opSpan[id] = s.ID
		}
	}
	l.mu.Lock()
	imports := append([]imported(nil), l.imports...)
	l.mu.Unlock()
	sort.Slice(imports, func(i, j int) bool { return imports[i].op < imports[j].op })
	for _, im := range imports {
		shift := im.base.Sub(l.t0).Microseconds()
		var top int64
		for _, s := range im.spans {
			r := s
			r.ID = maxID + s.ID
			if s.Parent == 0 {
				r.Parent = opSpan[im.op]
			} else {
				r.Parent = maxID + s.Parent
			}
			r.StartUS += shift
			spans = append(spans, r)
			if s.ID > top {
				top = s.ID
			}
		}
		maxID += top
	}
	return spans
}

// writeJSONL writes the merged spans as a JSONL trace (meta first).
func (l *spanLog) writeJSONL(path string, meta obs.Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(obs.MetaRecord{Type: "meta", Meta: meta}); err != nil {
		f.Close()
		return err
	}
	for _, s := range l.records() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
