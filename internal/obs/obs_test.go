package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := New()
	root := tr.Start("flow.run")
	root.SetAttr("circuit", "csamp")
	a := root.Start("flow.schematic_op")
	a.End()
	b := root.Start("flow.primitives")
	b1 := b.Start("flow.prim")
	b1.SetAttr("inst", "dp0")
	b1.End()
	b.End()
	root.End()

	spans, _ := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Depth-first, parents before children, siblings in start order.
	wantNames := []string{"flow.run", "flow.schematic_op", "flow.primitives", "flow.prim"}
	for i, s := range spans {
		if s.Name != wantNames[i] {
			t.Errorf("span %d = %q, want %q", i, s.Name, wantNames[i])
		}
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID {
		t.Error("stage spans not parented to root")
	}
	if spans[3].Parent != spans[2].ID {
		t.Error("prim span not parented to primitives")
	}
	if got := spans[3].Attrs["inst"]; got != "dp0" {
		t.Errorf("attr inst = %v", got)
	}
	// IDs are assigned in creation order and unique.
	seen := map[int64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Errorf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestSpanDoubleEndAndAccessors(t *testing.T) {
	tr := New()
	s := tr.Start("x")
	s.End()
	d1 := s.Dur()
	s.End() // no-op
	if s.Dur() != d1 {
		t.Error("double End changed duration")
	}
	if s.Name() != "x" || s.Trace() != tr {
		t.Error("accessors wrong")
	}
}

func TestOnSpanEndHook(t *testing.T) {
	tr := New()
	var mu sync.Mutex
	var names []string
	tr.OnSpanEnd(func(s *Span) {
		mu.Lock()
		names = append(names, s.Name())
		mu.Unlock()
	})
	s := tr.Start("a")
	c := s.Start("b")
	c.End()
	s.End()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("hook order = %v", names)
	}
}

func TestConcurrentCounters(t *testing.T) {
	tr := New()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Counter("test.shared").Inc()
				tr.Histogram("test.hist").Observe(float64(i))
				tr.Gauge("test.gauge").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := tr.Counter("test.shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if st := tr.Histogram("test.hist").Stats(); st.Count != workers*perWorker {
		t.Errorf("histogram count = %d", st.Count)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := root.Start("child")
			s.SetAttr("k", 1)
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	spans, _ := tr.snapshot()
	if len(spans) != 9 {
		t.Fatalf("got %d spans, want 9", len(spans))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New()
	root := tr.Start("flow.run")
	root.SetAttr("circuit", "ota5t")
	root.SetAttr("seed", int64(7))
	c := root.Start("flow.place")
	c.SetAttr("trace", []float64{3, 2, 1})
	c.End()
	root.End()
	tr.Counter("spice.dc.newton_iters").Add(42)
	tr.Gauge("place.anneal.best_cost").Set(123.5)
	tr.Histogram("spice.op.solve_ns").Observe(10)
	tr.Histogram("spice.op.solve_ns").Observe(30)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 2 || len(d.Metrics) != 3 {
		t.Fatalf("round trip: %d spans, %d metrics", len(d.Spans), len(d.Metrics))
	}
	r := d.Span("flow.run")
	if r == nil || r.Attrs["circuit"] != "ota5t" {
		t.Fatalf("root span wrong: %+v", r)
	}
	p := d.Span("flow.place")
	if p == nil || p.Parent != r.ID {
		t.Fatal("place span not parented to run")
	}
	if kids := d.Children(r.ID); len(kids) != 1 || kids[0].Name != "flow.place" {
		t.Errorf("Children = %+v", kids)
	}
	if m := d.Metric("spice.dc.newton_iters"); m == nil || m.Value != 42 || m.Kind != "counter" {
		t.Errorf("counter metric = %+v", m)
	}
	if m := d.Metric("place.anneal.best_cost"); m == nil || m.Value != 123.5 || m.Kind != "gauge" {
		t.Errorf("gauge metric = %+v", m)
	}
	if m := d.Metric("spice.op.solve_ns"); m == nil || m.Count != 2 || m.Sum != 40 || m.Min != 10 || m.Max != 30 {
		t.Errorf("histogram metric = %+v", m)
	}
	// Metrics are sorted by name.
	for i := 1; i < len(d.Metrics); i++ {
		if d.Metrics[i-1].Name > d.Metrics[i].Name {
			t.Error("metrics not sorted")
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"type":"mystery"}` + "\n")); err == nil {
		t.Error("unknown record type accepted")
	}
}

func TestTreeAndMetricsTable(t *testing.T) {
	tr := New()
	root := tr.Start("flow.run")
	root.SetAttr("mode", "optimized")
	c := root.Start("flow.place")
	c.End()
	root.End()
	tr.Counter("route.nets_routed").Add(3)
	tree := tr.Tree()
	if !strings.Contains(tree, "flow.run") || !strings.Contains(tree, "  flow.place") {
		t.Errorf("tree rendering wrong:\n%s", tree)
	}
	if !strings.Contains(tree, "mode=optimized") {
		t.Errorf("tree missing attrs:\n%s", tree)
	}
	tab := tr.MetricsTable()
	if !strings.Contains(tab, "route.nets_routed") || !strings.Contains(tab, "3") {
		t.Errorf("metrics table wrong:\n%s", tab)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Error("nil trace enabled")
	}
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil trace returned non-nil span")
	}
	// All of these must be harmless no-ops.
	c := s.Start("y")
	c.SetAttr("k", 1)
	c.End()
	s.End()
	if s.Name() != "" || s.Dur() != 0 || s.Attr("k") != nil || s.Trace() != nil {
		t.Error("nil span accessors not zero")
	}
	tr.Counter("c").Add(5)
	tr.Gauge("g").Set(1)
	tr.Histogram("h").Observe(1)
	if tr.Counter("c").Value() != 0 || tr.Gauge("g").Value() != 0 || tr.Histogram("h").Stats().Count != 0 {
		t.Error("nil metrics not zero")
	}
	tr.OnSpanEnd(func(*Span) {})
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if tr.Tree() != "" || tr.MetricsTable() != "" {
		t.Error("nil trace rendered non-empty output")
	}
}

// TestDisabledPathAllocations is the acceptance gate for the
// zero-overhead claim: the disabled (nil) path must not allocate.
func TestDisabledPathAllocations(t *testing.T) {
	var tr *Trace
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("flow.run")
		sp.SetAttr("k", "v")
		child := sp.Start("flow.place")
		child.End()
		sp.End()
		tr.Counter("spice.dc.newton_iters").Add(3)
		tr.Gauge("g").Set(1)
		tr.Histogram("h").Observe(2)
	}); n != 0 {
		t.Errorf("disabled path allocates %.1f per op, want 0", n)
	}
	// An untraced context with no Default behaves the same.
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		From(ctx).Counter("x").Inc()
		From(ctx).Start("y").End()
	}); n != 0 {
		t.Errorf("untraced context path allocates %.1f per op, want 0", n)
	}
}

// TestContextCarriage: a run's trace rides on its context, and a
// context without one falls back to the process-wide Default.
func TestContextCarriage(t *testing.T) {
	tr := New()
	ctx := With(context.Background(), tr)
	if From(ctx) != tr {
		t.Fatal("From did not return the carried trace")
	}
	if From(With(ctx, nil)) != tr {
		t.Error("With(nil) shadowed the carried trace")
	}
	if From(context.Background()) != nil {
		t.Error("untraced context with no Default returned a trace")
	}
	def := New()
	SetDefault(def)
	defer SetDefault(nil)
	if From(context.Background()) != def {
		t.Error("untraced context did not fall back to Default")
	}
	if From(ctx) != tr {
		t.Error("Default shadowed the carried trace")
	}
}

// TestSeenIsPerTrace: Seen reports repeats within one trace and set
// only; another trace starts with nothing seen.
func TestSeenIsPerTrace(t *testing.T) {
	a, b := New(), New()
	if a.Seen("decks", 1) || !a.Seen("decks", 1) {
		t.Error("first sighting should be new, the second a repeat")
	}
	if a.Seen("other", 1) {
		t.Error("sets with different names share keys")
	}
	if b.Seen("decks", 1) {
		t.Error("a fresh trace has already seen a key")
	}
	var none *Trace
	if none.Seen("decks", 1) || none.Seen("decks", 1) {
		t.Error("a nil trace reported a repeat")
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := Downsample(xs, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != 0 || got[9] != 99 {
		t.Errorf("endpoints = %g, %g", got[0], got[9])
	}
	if short := Downsample(xs[:5], 10); len(short) != 5 {
		t.Error("short series resampled")
	}
}

// The disabled-path cost must stay at a few ns/op (acceptance
// criterion): run with `go test -bench=Disabled ./internal/obs`.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("flow.run")
		sp.SetAttr("k", 1)
		sp.End()
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Counter("spice.dc.newton_iters").Inc()
	}
}

func BenchmarkDisabledDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Default().Counter("spice.dc.newton_iters").Inc()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	tr := New()
	c := tr.Counter("spice.dc.newton_iters")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
