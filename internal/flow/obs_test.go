package flow

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/obs"
)

// TestTraceSpanTree runs the optimized CS-amp flow with an injected
// trace and asserts the full span taxonomy: the flow.run root, the
// stage spans in pipeline order, and the solver spans nested under
// their stages.
func TestTraceSpanTree(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	p := fastParams()
	p.Trace = tr
	if _, err := RunContext(context.Background(), tech, bm, Optimized, p); err != nil {
		t.Fatal(err)
	}

	// Round-trip through the JSONL export — the same path CI's
	// checktrace exercises.
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := obs.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}

	root := d.Span("flow.run")
	if root == nil {
		t.Fatal("no flow.run span")
	}
	if root.Attrs["circuit"] != "csamp" || root.Attrs["mode"] != "optimized" {
		t.Errorf("flow.run attrs = %v", root.Attrs)
	}
	// Stage spans appear as direct children of the root, in pipeline
	// order (flow.prim runs concurrently under flow.primitives, so
	// only stage-level order is asserted).
	var stageOrder []string
	for _, c := range d.Children(root.ID) {
		stageOrder = append(stageOrder, c.Name)
	}
	want := []string{
		"flow.schematic_op", "flow.primitives", "flow.place",
		"flow.route", "flow.portopt", "flow.assemble", "flow.eval",
	}
	if got := strings.Join(stageOrder, " "); got != strings.Join(want, " ") {
		t.Errorf("stage order = %q, want %q", got, strings.Join(want, " "))
	}

	// The CS-amp has exactly two primitive instances; each flow.prim
	// must nest an optimize.select and an optimize.tune.
	prims := d.SpansNamed("flow.prim")
	if len(prims) != 2 {
		t.Fatalf("flow.prim spans = %d, want 2", len(prims))
	}
	for _, ps := range prims {
		var kids []string
		for _, c := range d.Children(ps.ID) {
			kids = append(kids, c.Name)
		}
		if got := strings.Join(kids, " "); got != "optimize.select optimize.tune" {
			t.Errorf("flow.prim %v children = %q", ps.Attrs["inst"], got)
		}
	}
	// Solver spans nest under their stages.
	for stage, child := range map[string]string{
		"flow.place":   "place.anneal",
		"flow.route":   "route.net",
		"flow.portopt": "portopt.reconcile",
	} {
		ss := d.Span(stage)
		if ss == nil {
			t.Fatalf("missing %s", stage)
		}
		found := false
		for _, c := range d.Children(ss.ID) {
			if c.Name == child {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no %s child", stage, child)
		}
	}

	// Solver metrics from every instrumented layer must be present
	// and non-zero.
	for _, name := range []string{
		"spice.op.runs", "spice.dc.newton_iters", "spice.ac.runs",
		"primlib.sims", "cellgen.layouts_generated", "extract.runs",
		"evcache.misses", "place.anneal.moves", "route.nets_routed",
		"portopt.evals",
	} {
		m := d.Metric(name)
		if m == nil {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
	if m := d.Metric("place.anneal.acceptance_rate"); m == nil || m.Count == 0 {
		t.Error("acceptance-rate histogram empty")
	}
}

// fingerprint reduces a flow result to a deterministic string
// covering everything layout-derived: metrics, placement geometry,
// routing geometry, reconciled wires, and netlist size.
func fingerprint(r *Result) string {
	var b strings.Builder
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "metric %s %.17g\n", k, r.Metrics[k])
	}
	if r.Placement != nil {
		blocks := make([]string, 0, len(r.Placement.Pos))
		for n := range r.Placement.Pos {
			blocks = append(blocks, n)
		}
		sort.Strings(blocks)
		for _, n := range blocks {
			fmt.Fprintf(&b, "place %s %v variant=%d\n", n, r.Placement.Pos[n], r.Placement.Variant[n])
		}
		fmt.Fprintf(&b, "hpwl %d symerr %.17g\n", r.Placement.HPWL, r.Placement.SymErr)
	}
	if r.Routing != nil {
		nets := make([]string, 0, len(r.Routing.Nets))
		for n := range r.Routing.Nets {
			nets = append(nets, n)
		}
		sort.Strings(nets)
		for _, n := range nets {
			nr := r.Routing.Nets[n]
			fmt.Fprintf(&b, "route %s len=%d vias=%d segs=%d\n", n, nr.TotalLength(), nr.Vias, len(nr.Segments))
		}
		fmt.Fprintf(&b, "overflow %d\n", r.Routing.OverflowEdges)
	}
	nets := make([]string, 0, len(r.NetWires))
	for n := range r.NetWires {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	for _, n := range nets {
		fmt.Fprintf(&b, "wires %s %d\n", n, r.NetWires[n])
	}
	if r.Netlist != nil {
		fmt.Fprintf(&b, "devices %d\n", len(r.Netlist.Devices))
	}
	return b.String()
}

// TestTracingDeterminism is the guard for the observability layer's
// core contract: tracing is strictly passive. For every benchmark
// circuit, the optimized flow with a live trace must produce a
// byte-identical layout fingerprint to the same flow with tracing
// off.
func TestTracingDeterminism(t *testing.T) {
	type build struct {
		name string
		f    func() (*circuits.Benchmark, error)
	}
	builds := []build{
		{"csamp", func() (*circuits.Benchmark, error) { return circuits.CommonSource(tech) }},
		{"ota5t", func() (*circuits.Benchmark, error) { return circuits.OTA5T(tech) }},
		{"strongarm", func() (*circuits.Benchmark, error) { return circuits.StrongARM(tech) }},
		{"rovco", func() (*circuits.Benchmark, error) { return circuits.ROVCO(tech, 4) }},
	}
	for _, bc := range builds {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			if testing.Short() && bc.name != "csamp" {
				t.Skip("short mode: csamp only")
			}
			bm, err := bc.f()
			if err != nil {
				t.Fatal(err)
			}
			// Traced run: the run's trace reaches every layer, so every
			// layer's instrumentation is active.
			tr := obs.New()
			p := fastParams()
			p.Trace = tr
			traced, err := RunContext(context.Background(), tech, bm, Optimized, p)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			// Untraced run: everything off.
			bare, err := RunContext(context.Background(), tech, bm, Optimized, fastParams())
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if a, b := fingerprint(traced), fingerprint(bare); a != b {
				t.Errorf("tracing changed the layout:\n--- traced ---\n%s--- untraced ---\n%s", a, b)
			}
		})
	}
}
