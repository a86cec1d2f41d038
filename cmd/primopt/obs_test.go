package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/obs"
)

// pinClock fixes the meta timestamp for the duration of a test.
func pinClock(t *testing.T) time.Time {
	t.Helper()
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	old := metaClock
	metaClock = func() time.Time { return fixed }
	t.Cleanup(func() { metaClock = old })
	return fixed
}

// keepDefault saves and restores the process-wide trace around a test
// that runs setupObs (which installs its own).
func keepDefault(t *testing.T) {
	t.Helper()
	old := obs.Default()
	t.Cleanup(func() { obs.SetDefault(old) })
}

// captureStderr runs f with os.Stderr redirected into a pipe and
// returns what was written (setupObs reports the bound telemetry
// address there).
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	f()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRegisterObsFlagsParsing(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f obsFlags
	registerObsFlags(fs, &f)
	err := fs.Parse([]string{
		"-trace", "t.jsonl", "-metrics", "-v",
		"-telemetry", ":0", "-pprof", "localhost:6060",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.trace != "t.jsonl" || !f.metrics || !f.verbose || f.telemetry != ":0" ||
		f.pprofAddr != "localhost:6060" || f.cpuprofile != "cpu.out" ||
		f.memprofile != "mem.out" {
		t.Errorf("parsed flags = %+v", f)
	}
	// Defaults: everything off.
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	var f2 obsFlags
	registerObsFlags(fs2, &f2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f2 != (obsFlags{}) {
		t.Errorf("default flags = %+v, want zero value", f2)
	}
}

func TestBuildMetaStampsRunContext(t *testing.T) {
	fixed := pinClock(t)
	t.Setenv("PRIMOPT_COMMIT", "abc123def456")
	m := buildMeta()
	if m.Schema != obs.TraceSchema {
		t.Errorf("schema = %d", m.Schema)
	}
	if !strings.HasPrefix(m.GoVersion, "go") {
		t.Errorf("go_version = %q", m.GoVersion)
	}
	if m.Host == "" {
		t.Error("host empty")
	}
	if m.StartTime != fixed.Format(time.RFC3339) {
		t.Errorf("start_time = %q, want pinned clock", m.StartTime)
	}
	if m.Commit != "abc123def456" {
		t.Errorf("commit = %q, want env override", m.Commit)
	}
}

// The core flag-plumbing path: -trace through setupObs and its finish
// hook, producing a meta-stamped trace file.
func TestSetupObsTrace(t *testing.T) {
	pinClock(t)
	keepDefault(t)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")

	finish, err := setupObs(obsFlags{trace: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.Default()
	if !tr.Enabled() {
		t.Fatal("setupObs did not install a default trace")
	}
	root := tr.Start("flow.run")
	root.SetAttr("circuit", "csamp")
	root.Start("flow.place").End()
	root.End()

	out := captureStderr(t, func() {
		if err := finish(); err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if !strings.Contains(out, "wrote trace") {
		t.Errorf("finish output = %q", out)
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	d, err := obs.ReadJSONL(tf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta == nil || d.Meta.Schema != obs.TraceSchema || d.Meta.StartTime != "2026-08-08T12:00:00Z" {
		t.Errorf("trace meta = %+v", d.Meta)
	}
	if d.Span("flow.place") == nil {
		t.Errorf("trace spans = %+v", d.Spans)
	}
}

// The -telemetry flag plumbing: setupObs binds the listener, reports
// the address on stderr, the surface serves, and finish tears it down.
func TestSetupObsTelemetryFlag(t *testing.T) {
	pinClock(t)
	keepDefault(t)
	var finish func() error
	out := captureStderr(t, func() {
		var err error
		finish, err = setupObs(obsFlags{telemetry: "127.0.0.1:0"})
		if err != nil {
			t.Errorf("setupObs: %v", err)
		}
	})
	if finish == nil {
		t.Fatal("setupObs failed")
	}
	const marker = "telemetry listening on http://"
	idx := strings.Index(out, marker)
	if idx < 0 {
		t.Fatalf("no telemetry address on stderr: %q", out)
	}
	addr := strings.TrimSpace(out[idx+len(marker):])
	addr = strings.SplitN(addr, "\n", 2)[0]

	obs.Default().Counter("spice.decks").Add(5)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "primopt_spice_decks 5") {
		t.Errorf("/metrics = %d %q", resp.StatusCode, body)
	}
	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Errorf("GET /healthz: %v", err)
	} else if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	if err := finish(); err != nil {
		t.Errorf("finish: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("telemetry server still up after finish")
	}
}

// writeTraceFile dumps raw JSONL lines for checktrace fixtures.
func writeTraceFile(t *testing.T, dir, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validMetaLine = `{"type":"meta","schema":1,"go_version":"go1.24.0","host":"h","start_time":"2026-08-08T12:00:00Z"}`

// conventionalTraceLines is a minimal structurally-valid conventional
// run: all required stage spans, sane timing.
func conventionalTraceLines(metaLine string) []string {
	lines := []string{}
	if metaLine != "" {
		lines = append(lines, metaLine)
	}
	return append(lines,
		`{"type":"span","id":1,"name":"flow.run","start_us":0,"dur_us":1000,"attrs":{"circuit":"csamp","mode":"conventional"}}`,
		`{"type":"span","id":2,"parent":1,"name":"flow.schematic_op","start_us":0,"dur_us":100}`,
		`{"type":"span","id":3,"parent":1,"name":"flow.primitives","start_us":100,"dur_us":200}`,
		`{"type":"span","id":4,"parent":1,"name":"flow.place","start_us":300,"dur_us":300}`,
		`{"type":"span","id":5,"parent":1,"name":"flow.route","start_us":600,"dur_us":200}`,
		`{"type":"span","id":6,"parent":1,"name":"flow.assemble","start_us":800,"dur_us":100}`,
		`{"type":"span","id":7,"parent":1,"name":"flow.eval","start_us":900,"dur_us":100}`,
	)
}

func TestCheckTraceMetaValidation(t *testing.T) {
	dir := t.TempDir()

	good := writeTraceFile(t, dir, "good.jsonl", conventionalTraceLines(validMetaLine)...)
	if rc := runCheckTrace([]string{good}); rc != 0 {
		t.Errorf("valid trace rejected (exit %d)", rc)
	}

	noMeta := writeTraceFile(t, dir, "nometa.jsonl", conventionalTraceLines("")...)
	var rc int
	out := captureStderr(t, func() { rc = runCheckTrace([]string{noMeta}) })
	if rc == 0 || !strings.Contains(out, "missing meta record") {
		t.Errorf("meta-less trace: exit %d, stderr %q", rc, out)
	}

	badMeta := writeTraceFile(t, dir, "badmeta.jsonl", conventionalTraceLines(
		`{"type":"meta","schema":99,"go_version":"","host":"h","start_time":"yesterday"}`)...)
	out = captureStderr(t, func() { rc = runCheckTrace([]string{badMeta}) })
	if rc == 0 {
		t.Error("garbage meta accepted")
	}
	for _, want := range []string{"schema 99", "missing go_version", "not RFC3339"} {
		if !strings.Contains(out, want) {
			t.Errorf("bad-meta stderr missing %q: %q", want, out)
		}
	}
}

func TestCheckTraceRejectsNegativeSelfTime(t *testing.T) {
	dir := t.TempDir()
	// flow.eval's child intervals cover 900µs inside a 100µs span —
	// impossible timing, far past the tolerance.
	lines := append(conventionalTraceLines(validMetaLine),
		`{"type":"span","id":8,"parent":7,"name":"spice.tran","start_us":900,"dur_us":900}`)
	bad := writeTraceFile(t, dir, "negself.jsonl", lines...)
	var rc int
	out := captureStderr(t, func() { rc = runCheckTrace([]string{bad}) })
	if rc == 0 || !strings.Contains(out, "negative self-time") {
		t.Errorf("negative self-time trace: exit %d, stderr %q", rc, out)
	}

	// Concurrent children that fit inside the parent are fine: two
	// overlapping 250µs children under the 300µs flow.place.
	lines = append(conventionalTraceLines(validMetaLine),
		`{"type":"span","id":8,"parent":4,"name":"place.w1","start_us":300,"dur_us":250}`,
		`{"type":"span","id":9,"parent":4,"name":"place.w2","start_us":320,"dur_us":250}`)
	ok := writeTraceFile(t, dir, "concurrent.jsonl", lines...)
	if rc := runCheckTrace([]string{ok}); rc != 0 {
		t.Errorf("concurrent children rejected (exit %d)", rc)
	}
}

// An RO-VCO run's flow.eval must hold one eval.point child per control
// voltage of the curve, each inside the stage's window and recording
// its work.
func TestCheckTraceEvalPoints(t *testing.T) {
	dir := t.TempDir()
	trace := func(points ...string) []string {
		lines := conventionalTraceLines(validMetaLine)
		lines[1] = strings.Replace(lines[1], `"csamp"`, `"rovco"`, 1)
		return append(lines, points...)
	}
	point := func(id int, vctrl float64, start int) string {
		return fmt.Sprintf(`{"type":"span","id":%d,"parent":7,"name":"eval.point","start_us":%d,"dur_us":40,"attrs":{"vctrl":%v,"ok":true,"tran_steps":3000,"newton_iters":7400,"factorizations":880}}`, id, start, vctrl)
	}
	var all []string
	for i, v := range circuits.VCOCurveVoltages() {
		all = append(all, point(10+i, v, 900+10*(i%2)))
	}
	ok := writeTraceFile(t, dir, "points_ok.jsonl", trace(all...)...)
	if rc := runCheckTrace([]string{ok}); rc != 0 {
		t.Errorf("complete eval.point set rejected (exit %d)", rc)
	}
	for name, points := range map[string][]string{
		"missing":   all[1:],
		"duplicate": append(all[:len(all):len(all)], point(20, 0.35, 950)),
		"outside":   append(all[1:len(all):len(all)], point(20, 0.35, 1500)),
		"stray":     append(all[:len(all):len(all)], point(20, 0.7, 950)),
		"no work":   append(all[1:len(all):len(all)], strings.Replace(point(20, 0.35, 950), `"tran_steps":3000,`, "", 1)),
	} {
		bad := writeTraceFile(t, dir, "points_"+name+".jsonl", trace(points...)...)
		var rc int
		out := captureStderr(t, func() { rc = runCheckTrace([]string{bad}) })
		if rc == 0 || !strings.Contains(out, "eval.point") {
			t.Errorf("%s eval.point: exit %d, stderr %q", name, rc, out)
		}
	}
}

// The solver fast-path counters are bounded by the iteration counts
// that could host them: a pivot reuse needs a Newton iteration (DC or
// transient) or an AC point, a bypass needs a Newton iteration.
// checktrace must reject a trace that overcounts either and accept
// one at the boundary.
func TestCheckTraceSolverCounterBounds(t *testing.T) {
	dir := t.TempDir()
	metrics := func(reused, bypassed float64) []string {
		return append(conventionalTraceLines(validMetaLine),
			`{"type":"metric","kind":"counter","name":"spice.dc.newton_iters","value":100}`,
			`{"type":"metric","kind":"counter","name":"spice.tran.newton_iters","value":400}`,
			`{"type":"metric","kind":"counter","name":"spice.ac.points","value":50}`,
			fmt.Sprintf(`{"type":"metric","kind":"counter","name":"spice.factor.reused","value":%g}`, reused),
			fmt.Sprintf(`{"type":"metric","kind":"counter","name":"spice.newton.bypassed","value":%g}`, bypassed),
		)
	}

	// At the boundary: reused == iters + ac points, bypassed == iters.
	ok := writeTraceFile(t, dir, "bounds_ok.jsonl", metrics(550, 500)...)
	if rc := runCheckTrace([]string{ok}); rc != 0 {
		t.Errorf("boundary counters rejected (exit %d)", rc)
	}

	overReuse := writeTraceFile(t, dir, "over_reuse.jsonl", metrics(551, 0)...)
	var rc int
	out := captureStderr(t, func() { rc = runCheckTrace([]string{overReuse}) })
	if rc == 0 || !strings.Contains(out, "spice.factor.reused") {
		t.Errorf("overcounted factor.reused: exit %d, stderr %q", rc, out)
	}

	overBypass := writeTraceFile(t, dir, "over_bypass.jsonl", metrics(0, 501)...)
	out = captureStderr(t, func() { rc = runCheckTrace([]string{overBypass}) })
	if rc == 0 || !strings.Contains(out, "spice.newton.bypassed") {
		t.Errorf("overcounted newton.bypassed: exit %d, stderr %q", rc, out)
	}
}

// -require-warm asserts the persistent cache's success metric: a
// second run against a warm -cache-dir solves zero SPICE decks and
// serves every evaluation from the disk tier.
func TestCheckTraceRequireWarm(t *testing.T) {
	dir := t.TempDir()

	warm := writeTraceFile(t, dir, "warm.jsonl", append(conventionalTraceLines(validMetaLine),
		`{"type":"metric","kind":"counter","name":"evcache.disk_hits","value":7}`)...)
	if rc := runCheckTrace([]string{"-require-warm", warm}); rc != 0 {
		t.Errorf("warm trace rejected (exit %d)", rc)
	}
	// Without the flag the same trace passes trivially too.
	if rc := runCheckTrace([]string{warm}); rc != 0 {
		t.Errorf("warm trace rejected without flag (exit %d)", rc)
	}

	// A run that still solved decks is not a warm replay.
	cold := writeTraceFile(t, dir, "cold.jsonl", append(conventionalTraceLines(validMetaLine),
		`{"type":"metric","kind":"counter","name":"spice.decks","value":12}`,
		`{"type":"metric","kind":"counter","name":"evcache.disk_hits","value":7}`)...)
	var rc int
	out := captureStderr(t, func() { rc = runCheckTrace([]string{"-require-warm", cold}) })
	if rc == 0 || !strings.Contains(out, "spice.decks = 12") {
		t.Errorf("deck-solving trace accepted as warm: exit %d, stderr %q", rc, out)
	}
	// ...but without -require-warm it is an ordinary valid trace.
	if rc := runCheckTrace([]string{cold}); rc != 0 {
		t.Errorf("cold trace rejected without flag (exit %d)", rc)
	}

	// Zero decks but no disk hits means the disk tier never engaged —
	// e.g. the cache dir flag was dropped from the CI job.
	nodisk := writeTraceFile(t, dir, "nodisk.jsonl", conventionalTraceLines(validMetaLine)...)
	out = captureStderr(t, func() { rc = runCheckTrace([]string{"-require-warm", nodisk}) })
	if rc == 0 || !strings.Contains(out, "evcache.disk_hits") {
		t.Errorf("diskless trace accepted as warm: exit %d, stderr %q", rc, out)
	}
}

// End-to-end over the CLI entry points: tracecmp fails on a seeded
// regression, passes on identical traces and rejects a threshold that
// cannot gate anything; report renders a trace.
func TestTraceCmpExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeTraceFile(t, dir, "a.jsonl", conventionalTraceLines(validMetaLine)...)
	// Seed a 3x regression into flow.place (300µs -> 900µs); index 4
	// of the fixture lines (after the meta line) is flow.place.
	slow := conventionalTraceLines(validMetaLine)
	slow[4] = `{"type":"span","id":4,"parent":1,"name":"flow.place","start_us":300,"dur_us":900}`
	cur := writeTraceFile(t, dir, "b.jsonl", slow...)

	// The renderers write their tables to stdout; capture so the test
	// log stays readable — only the exit codes are asserted.
	quiet := func(f func() int) int {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = w
		rc := f()
		os.Stdout = old
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(r); err != nil {
			t.Fatal(err)
		}
		return rc
	}
	if rc := quiet(func() int {
		return runTraceCmp([]string{"-max-regress", "20%", "-min-us", "100", base, cur})
	}); rc != 1 {
		t.Errorf("tracecmp on seeded regression = %d, want 1", rc)
	}
	if rc := quiet(func() int {
		return runTraceCmp([]string{"-max-regress", "20%", "-min-us", "100", base, base})
	}); rc != 0 {
		t.Errorf("tracecmp on identical traces = %d, want 0", rc)
	}
	for _, bad := range []string{"NaN", "Inf", "-50%"} {
		var rc int
		out := captureStderr(t, func() {
			rc = runTraceCmp([]string{"-max-regress", bad, base, cur})
		})
		if rc != 2 || !strings.Contains(out, "threshold") {
			t.Errorf("tracecmp -max-regress %s = %d, stderr %q; want 2 and a threshold error", bad, rc, out)
		}
	}
	if rc := quiet(func() int { return runReport([]string{"-top", "3", base}) }); rc != 0 {
		t.Errorf("report = %d, want 0", rc)
	}
}
