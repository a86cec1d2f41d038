package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/obs/analyze"
	"primopt/internal/pdk"
	"primopt/internal/verify"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	lats := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[n-1-i] = time.Duration(i+1) * time.Millisecond // reversed: tail must sort
		}
		return out
	}
	if _, beyond, ok := tail(lats(99), 0.9); ok || beyond != 9 {
		t.Fatalf("99 ops: beyond=%d ok=%v, want 9 beyond and no tail", beyond, ok)
	}
	p90, beyond, ok := tail(lats(100), 0.9)
	if !ok || beyond != 10 || p90 != 90*time.Millisecond {
		t.Fatalf("100 ops: p90=%v beyond=%d ok=%v, want 90ms with 10 beyond", p90, beyond, ok)
	}
	if _, _, ok := tail(lats(3), 0.9); ok {
		t.Fatal("3 ops reported a tail")
	}
}

func TestQualityGapHandComputed(t *testing.T) {
	// |110−100|/100 = 10 %, |−45−(−50)|/50 = 10 %, |0.3−0.2|/0.2 = 50 %:
	// mean 70/3 %. The metric outside the order is ignored.
	sch := map[string]float64{"gain": 100, "offset": -50, "pm": 0.2, "extra": 1}
	post := map[string]float64{"gain": 110, "offset": -45, "pm": 0.3, "extra": 9}
	got, err := qualityGap([]string{"gain", "offset", "pm"}, post, sch)
	if err != nil {
		t.Fatal(err)
	}
	if want := 70.0 / 3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("gap = %v, want %v", got, want)
	}
	if _, err := qualityGap([]string{"gain"}, post, map[string]float64{"gain": 0}); err == nil {
		t.Fatal("a zero schematic metric gave no error")
	}
}

func TestCounterDeltasNormalizePerOp(t *testing.T) {
	before := map[string]int64{"spice.decks": 100, "spice.duplicate_decks": 10, "evcache.hits": 5}
	after := map[string]int64{
		"spice.decks": 500, "spice.duplicate_decks": 110, "evcache.hits": 35, "evcache.misses": 10,
		"optimize.sims.selection": 30, "optimize.sims.tuning": 10,
		"place.anneal.moves": 80, "place.anneal.accepted": 20,
	}
	c := subCounters(after, before)
	// Counters an op reported on its own trace add to the sink's delta.
	addCounters(c, map[string]int64{"spice.decks": 100, "optimize.evals": 8, "optimize.repeat_evals": 2})
	m := counterLayers(c, 4)
	want := map[string]float64{
		"spice.decks":             125,     // (400 + 100) / 4
		"spice.unique_deck_ratio": 1 - 0.2, // 100 duplicates of 500
		"evcache.misses":          2.5,     // 10 / 4
		"evcache.hit_ratio":       0.75,    // 30 / (30 + 10)
		"optimize.sims":           10,      // (30 + 10) / 4
		"optimize.repeat_ratio":   0.25,    // 2 / 8
		"place.moves":             20,      // 80 / 4
		"place.accept_ratio":      0.25,    // 20 / 80
		"spice.tran_steps":        0,       // never counted
		"serve.shed":              0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if r := counterLayers(map[string]int64{}, 1)["spice.unique_deck_ratio"]; r != 1 {
		t.Errorf("unique deck ratio with no decks = %v, want 1", r)
	}
}

// alteringWorkload runs every op through flowLoad's real output check,
// handing every third op a result whose metric was altered.
type alteringWorkload struct {
	w   *flowLoad
	bm  *circuits.Benchmark
	ops atomic.Int64
}

func (a *alteringWorkload) clients() int                               { return 2 }
func (a *alteringWorkload) setup(context.Context, *obs.Span) error     { return nil }
func (a *alteringWorkload) beginPhase(bool) *obs.Trace                 { return nil }
func (a *alteringWorkload) endPhase(*phase)                            {}
func (a *alteringWorkload) close() error                               { return nil }
func (a *alteringWorkload) layers(context.Context, map[string]float64) {}

func (a *alteringWorkload) op(ctx context.Context, o *op) error {
	metrics := map[string]float64{}
	for i, k := range a.bm.MetricOrder {
		metrics[k] = float64(i + 1)
	}
	if o.i%3 == 2 {
		metrics[a.bm.MetricOrder[0]] *= 1 + 1e-12
	}
	in := input{"csamp", 1}
	o.input = in.key()
	o.timed(func() { time.Sleep(time.Millisecond) })
	a.ops.Add(1)
	return a.w.check(in, &flow.Result{Metrics: metrics, Verify: &verify.Report{}})
}

func TestAlteredOutputCountsAsFailed(t *testing.T) {
	tech := pdk.Default()
	bm, err := circuits.Build(tech, "csamp", 0)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{tech: tech, dur: 100 * time.Millisecond, log: io.Discard, gaps: map[string]float64{}}
	w := newBatchCold(b)
	w.refs.sch = map[string]map[string]float64{"csamp": {}}
	w.refs.order = map[string][]string{"csamp": bm.MetricOrder}
	for i, k := range bm.MetricOrder {
		w.refs.sch["csamp"][k] = float64(i + 2)
	}
	a := &alteringWorkload{w: w, bm: bm}
	ph := b.phase(context.Background(), a, false)
	n := a.ops.Load()
	if n < 6 || int64(ph.done) != n {
		t.Fatalf("phase ran %d ops, counted %d", n, ph.done)
	}
	wantFailed := n / 3 // ops 2, 5, 8, ... were altered
	if int64(ph.failed) != wantFailed || b.failed.Load() != wantFailed || b.attempted.Load() != n {
		t.Fatalf("failed %d (bench %d of %d attempted), want %d", ph.failed, b.failed.Load(), b.attempted.Load(), wantFailed)
	}
	if len(ph.lats) != int(n-wantFailed) {
		t.Fatalf("%d latencies for %d good ops", len(ph.lats), n-wantFailed)
	}

	// A degraded result fails even on a fresh input.
	res := &flow.Result{Metrics: map[string]float64{}, Verify: &verify.Report{}, Degraded: map[string]string{"net:x": "failed to route"}}
	if err := w.check(input{"csamp", 2}, res); err == nil {
		t.Fatal("degraded result passed the check")
	}
}

func TestDaemonBodyMustMatchSetUpPass(t *testing.T) {
	want := []byte(`{"circuit":"csamp","metrics":{"gain_db":30.1}}` + "\n")
	if err := sameBody(want, append([]byte(nil), want...), false); err != nil {
		t.Fatal(err)
	}
	altered := []byte(`{"circuit":"csamp","metrics":{"gain_db":30.2}}` + "\n")
	if sameBody(want, altered, false) == nil {
		t.Fatal("altered body passed")
	}
	traced := []byte(`{"circuit":"csamp","metrics":{"gain_db":30.1},"trace":{"spans":[]}}` + "\n")
	if err := sameBody(want, traced, true); err != nil {
		t.Fatal(err)
	}
	alteredTraced := []byte(`{"circuit":"csamp","metrics":{"gain_db":30.2},"trace":{"spans":[]}}` + "\n")
	if sameBody(want, alteredTraced, true) == nil {
		t.Fatal("altered traced body passed")
	}
	// A request whose set-up op failed has no body to match.
	if sameBody(nil, traced, true) == nil || sameBody(nil, want, false) == nil {
		t.Fatal("a body passed with no set-up body to compare with")
	}
}

func TestImportedSpansHangUnderTheirOp(t *testing.T) {
	l := newSpanLog()
	ph := l.start("bench.phase")
	ph.SetAttr("phase", "traced")
	o := &op{id: 7, parent: ph, base: l.t0.Add(time.Millisecond)}
	o.timed(func() {})
	ph.End()
	o.sub = []obs.SpanRecord{
		{Type: "span", ID: 1, Name: "flow.run", StartUS: 0, DurUS: 900},
		{Type: "span", ID: 2, Parent: 1, Name: "flow.eval", StartUS: 100, DurUS: 500},
	}
	l.add(o)
	tree := analyze.BuildTree(&obs.Dump{Spans: l.records()})
	if len(tree.Roots) != 1 {
		t.Fatalf("%d roots, want the phase alone", len(tree.Roots))
	}
	opNode := tree.Roots[0].Children[0]
	if opNode.Name != "bench.op" || len(opNode.Children) != 1 || opNode.Children[0].Name != "flow.run" {
		t.Fatalf("flow.run not under bench.op: %+v", opNode)
	}
	eval := opNode.Children[0].Children[0]
	if eval.Name != "flow.eval" || eval.StartUS != 1100 {
		t.Fatalf("flow.eval = %s at %dus, want start shifted by the op base to 1100", eval.Name, eval.StartUS)
	}
	totals := map[string]int64{}
	for _, st := range phaseAggregate(tree, "traced") {
		totals[st.Name] = st.TotalUS
	}
	if totals["flow.eval"] != 500 {
		t.Fatalf("phase aggregate flow.eval = %d, want 500", totals["flow.eval"])
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, e := range endToEnd {
		e2e = append(e2e, entry{e.name, e.unit})
	}
	for _, l := range layerTable {
		layers = append(layers, entry{l.name, l.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end = %v, code prints %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer = %v, code prints %v", spec.PerLayer, layers)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, code runs %v", names, workloadNames())
	}
}
