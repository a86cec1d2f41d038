package analyze

import (
	"bytes"
	"strings"
	"testing"

	"primopt/internal/obs"
)

func span(id, parent int64, name string, startUS, durUS int64) obs.SpanRecord {
	return obs.SpanRecord{Type: "span", ID: id, Parent: parent, Name: name, StartUS: startUS, DurUS: durUS}
}

func TestBuildTreeSelfTimeSequential(t *testing.T) {
	// root [0,100] with sequential children [0,30] and [40,80]:
	// coverage 70, self 30.
	d := &obs.Dump{Spans: []obs.SpanRecord{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 0, 30),
		span(3, 1, "b", 40, 40),
	}}
	tr := BuildTree(d)
	if len(tr.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tr.Roots))
	}
	root := tr.Roots[0]
	if root.SelfUS != 30 {
		t.Errorf("root self = %d, want 30", root.SelfUS)
	}
	if n := tr.Node(2); n == nil || n.SelfUS != 30 {
		t.Errorf("leaf self = %+v, want 30", n)
	}
}

func TestBuildTreeSelfTimeConcurrent(t *testing.T) {
	// Two children overlapping [0,60] and [20,90] under root [0,100]:
	// a naive sum would claim 130 > 100 (negative self), the interval
	// union correctly yields coverage 90, self 10.
	d := &obs.Dump{Spans: []obs.SpanRecord{
		span(1, 0, "root", 0, 100),
		span(2, 1, "w1", 0, 60),
		span(3, 1, "w2", 20, 70),
	}}
	tr := BuildTree(d)
	if got := tr.Roots[0].SelfUS; got != 10 {
		t.Errorf("concurrent self = %d, want 10", got)
	}
	if v := SelfTimeViolations(tr, 0); len(v) != 0 {
		t.Errorf("concurrent children flagged as violation: %v", v)
	}
}

func TestSelfTimeViolations(t *testing.T) {
	// Child [0,150] sticks out of parent [0,100] — impossible timing,
	// must be flagged even though clipped self-time stays >= 0.
	d := &obs.Dump{Spans: []obs.SpanRecord{
		span(1, 0, "root", 0, 100),
		span(2, 1, "runaway", 0, 150),
	}}
	tr := BuildTree(d)
	v := SelfTimeViolations(tr, 0)
	if len(v) != 1 || !strings.Contains(v[0], "runaway") == false && len(v) != 1 {
		t.Fatalf("violations = %v, want 1 mentioning the parent", v)
	}
	if !strings.Contains(v[0], "negative self-time") {
		t.Errorf("violation text = %q", v[0])
	}
	// Tolerance absorbs microsecond truncation.
	if v := SelfTimeViolations(tr, 50); len(v) != 0 {
		t.Errorf("tolerance not applied: %v", v)
	}
}

func TestBuildTreeOrphanBecomesRoot(t *testing.T) {
	d := &obs.Dump{Spans: []obs.SpanRecord{
		span(5, 99, "orphan", 0, 10),
	}}
	tr := BuildTree(d)
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "orphan" {
		t.Errorf("orphan not lifted to root: %+v", tr.Roots)
	}
}

func TestAggregateAndCriticalPath(t *testing.T) {
	d := &obs.Dump{Spans: []obs.SpanRecord{
		span(1, 0, "flow.run", 0, 1000),
		span(2, 1, "flow.place", 0, 700),
		span(3, 1, "flow.route", 700, 200),
		span(4, 2, "place.anneal", 0, 650),
	}}
	tr := BuildTree(d)
	stats := tr.Aggregate()
	byName := map[string]SpanStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["flow.place"].TotalUS != 700 || byName["flow.place"].SelfUS != 50 {
		t.Errorf("flow.place stat = %+v", byName["flow.place"])
	}
	path := CriticalPath(tr.LongestRoot())
	var names []string
	for _, s := range path {
		names = append(names, s.Name)
	}
	want := "flow.run/flow.place/place.anneal"
	if got := strings.Join(names, "/"); got != want {
		t.Errorf("critical path = %s, want %s", got, want)
	}
	if path[1].Depth != 1 || path[2].Depth != 2 {
		t.Errorf("depths = %+v", path)
	}
}

// makeFlowDump builds a baseline-shaped trace: flow.run with place and
// route stages, plus a couple of metrics.
func makeFlowDump(placeUS, routeUS int64, sims float64) *obs.Dump {
	return &obs.Dump{
		Meta: &obs.Meta{Schema: obs.TraceSchema, GoVersion: "go1.24.0", Host: "h"},
		Spans: []obs.SpanRecord{
			span(1, 0, "flow.run", 0, placeUS+routeUS),
			span(2, 1, "flow.place", 0, placeUS),
			span(3, 1, "flow.route", placeUS, routeUS),
		},
		Metrics: []obs.MetricRecord{
			{Type: "metric", Kind: "counter", Name: "spice.decks", Value: sims},
		},
	}
}

// Acceptance criterion: tracecmp's engine detects a seeded regression
// between two fixture traces.
func TestDiffTracesDetectsSeededRegression(t *testing.T) {
	a := makeFlowDump(50_000, 20_000, 100)  // place 50ms
	b := makeFlowDump(120_000, 20_000, 140) // place seeded to 120ms (2.4x)
	td := DiffTraces(a, b)

	regs := td.Regressions(Options{MaxRegress: 0.2, MinUS: 1000})
	var names []string
	for _, r := range regs {
		names = append(names, r.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "flow.place") {
		t.Fatalf("seeded flow.place regression not detected: %v", regs)
	}
	// flow.run grew too (it contains place), so it may be flagged;
	// flow.route must NOT be (unchanged).
	if strings.Contains(joined, "flow.route") {
		t.Errorf("unchanged flow.route flagged: %v", regs)
	}
	for _, r := range regs {
		if r.Name == "flow.place" && (r.Ratio < 2.3 || r.Ratio > 2.5) {
			t.Errorf("flow.place ratio = %v, want ~2.4", r.Ratio)
		}
	}

	// Below-floor stages are ignored even with huge ratios.
	a2 := &obs.Dump{Spans: []obs.SpanRecord{span(1, 0, "tiny", 0, 10)}}
	b2 := &obs.Dump{Spans: []obs.SpanRecord{span(1, 0, "tiny", 0, 100)}}
	if regs := DiffTraces(a2, b2).Regressions(Options{MaxRegress: 0.2, MinUS: 1000}); len(regs) != 0 {
		t.Errorf("below-floor stage flagged: %v", regs)
	}
}

func TestDiffTracesNewFamilyAndMetrics(t *testing.T) {
	a := makeFlowDump(50_000, 20_000, 100)
	b := makeFlowDump(50_000, 20_000, 100)
	b.Spans = append(b.Spans, span(4, 1, "flow.extract", 70_000, 30_000))
	td := DiffTraces(a, b)
	regs := td.Regressions(Options{MaxRegress: 0.2, MinUS: 1000})
	found := false
	for _, r := range regs {
		if strings.Contains(r.Name, "flow.extract") && strings.Contains(r.Name, "new") {
			found = true
		}
	}
	if !found {
		t.Errorf("new expensive family not flagged: %v", regs)
	}
	// Metric delta join.
	b.Metrics[0].Value = 140
	td = DiffTraces(a, b)
	var dm *MetricDelta
	for i := range td.Metrics {
		if td.Metrics[i].Name == "spice.decks" {
			dm = &td.Metrics[i]
		}
	}
	if dm == nil || dm.A != 100 || dm.B != 140 {
		t.Errorf("metric delta = %+v", dm)
	}
}

func TestDiffTracesRender(t *testing.T) {
	a := makeFlowDump(50_000, 20_000, 100)
	b := makeFlowDump(120_000, 20_000, 140)
	var buf bytes.Buffer
	if err := DiffTraces(a, b).Render(&buf, Options{MaxRegress: 0.2, MinUS: 1000}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flow.place", "+140.0%", "critical path (a)", "critical path (b)", "spice.decks"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestParsePercent(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		err  bool
	}{
		{"20%", 0.2, false},
		{" 150% ", 1.5, false},
		{"0.2", 0.2, false},
		{"1.5", 1.5, false},
		{"abc", 0, true},
		{"%", 0, true},
		{"NaN", 0, true},
		{"Inf", 0, true},
		{"inf%", 0, true},
		{"-50%", 0, true},
		{"-0.2", 0, true},
	} {
		got, err := ParsePercent(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParsePercent(%q) err = %v", tc.in, err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParsePercent(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
