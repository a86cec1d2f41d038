package flow

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"primopt/internal/circuits"
	"primopt/internal/fault"
	"primopt/internal/obs"
	"primopt/internal/verify"
)

// faultParams returns fast flow params with a fresh run trace and a
// fault injector armed by spec.
func faultParams(t *testing.T, spec string) Params {
	t.Helper()
	p := fastParams()
	p.Trace = obs.New()
	inj, err := fault.New(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	p.Fault = inj
	return p
}

// TestFlowDegradesToConventionalOnOptimizeFault: with extraction
// failing on every hit, the optimized run must complete on the
// conventional fallback, mark every instance Degraded, and count it.
func TestFlowDegradesToConventionalOnOptimizeFault(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams(t, fault.SiteExtract+":error@1+")
	tr := p.Trace
	res, err := RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		t.Fatalf("run died instead of degrading: %v", err)
	}
	if len(res.Degraded) != len(bm.Insts) {
		t.Fatalf("Degraded = %v, want all %d instances", res.Degraded, len(bm.Insts))
	}
	for what, why := range res.Degraded {
		if !strings.Contains(why, "conventional fallback") {
			t.Errorf("degradation %s: %q does not name the fallback", what, why)
		}
	}
	if got := res.Metrics["ugf"]; got <= 0 {
		t.Errorf("degraded run produced no metrics: ugf = %g", got)
	}
	if n := tr.Counter("flow.degraded").Value(); n != int64(len(bm.Insts)) {
		t.Errorf("flow.degraded = %d, want %d", n, len(bm.Insts))
	}
	if n := tr.Counter("fault.injected").Value(); n == 0 {
		t.Error("fault.injected counter missing")
	}
}

// TestFlowRetryClearsOneShotFault: a fault firing exactly once is
// absorbed by the single retry — no degradation, one flow.retries.
func TestFlowRetryClearsOneShotFault(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams(t, fault.SiteExtract+":error@1")
	tr := p.Trace
	res, err := RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		t.Fatalf("run died on a one-shot fault: %v", err)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("Degraded = %v, want none (retry should clear)", res.Degraded)
	}
	if n := tr.Counter("flow.retries").Value(); n != 1 {
		t.Errorf("flow.retries = %d, want 1", n)
	}
}

// TestFlowRetryLadderConfigurable: Params.RetryAttempts shapes the
// ladder. RetryAttempts=1 disables retries entirely — a one-shot fault now costs a
// degradation instead of being retried away — while a widened ladder
// still absorbs it and books exactly one retry (the loop stops as
// soon as an attempt succeeds, however many attempts remain).
func TestFlowRetryLadderConfigurable(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}

	p := faultParams(t, fault.SiteExtract+":error@1")
	tr := p.Trace
	p.RetryAttempts = 1
	res, err := RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		t.Fatalf("no-retry run died instead of degrading: %v", err)
	}
	if len(res.Degraded) != 1 {
		t.Errorf("RetryAttempts=1: Degraded = %v, want exactly the one faulted instance", res.Degraded)
	}
	if n := tr.Counter("flow.retries").Value(); n != 0 {
		t.Errorf("RetryAttempts=1: flow.retries = %d, want 0", n)
	}

	p = faultParams(t, fault.SiteExtract+":error@1")
	tr = p.Trace
	p.RetryAttempts = 4
	res, err = RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		t.Fatalf("widened-ladder run died: %v", err)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("RetryAttempts=4: Degraded = %v, want none", res.Degraded)
	}
	if n := tr.Counter("flow.retries").Value(); n != 1 {
		t.Errorf("RetryAttempts=4: flow.retries = %d, want 1 (stop on first success)", n)
	}
}

// TestFlowPanicFaultDegrades: a panic-mode fault inside the primitive
// pipeline is recovered and follows the same degradation ladder.
func TestFlowPanicFaultDegrades(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams(t, fault.SiteExtract+":panic@1+")
	res, err := RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		t.Fatalf("run died on a recovered panic: %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Error("panic fault produced no degradation record")
	}
}

// TestFlowRouteFaultDegradesNet: an injected per-net routing failure
// records a net:<name> degradation and the run still completes, in
// the conventional flow and in Fig. 2's fixed-wire corners alike.
func TestFlowRouteFaultDegradesNet(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runs := map[string]func(Params) (*Result, error){
		"RunContext": func(p Params) (*Result, error) {
			return RunContext(ctx, tech, bm, Conventional, p)
		},
		"RunFixedWiresContext": func(p Params) (*Result, error) {
			return RunFixedWiresContext(ctx, tech, bm, 8, p)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			res, err := run(faultParams(t, fault.SiteRouteNet+":error@1"))
			if err != nil {
				t.Fatalf("run died on a per-net routing failure: %v", err)
			}
			found := false
			for what := range res.Degraded {
				if strings.HasPrefix(what, "net:") {
					found = true
				}
			}
			if !found {
				t.Errorf("Degraded = %v, want a net:* entry", res.Degraded)
			}
		})
	}
}

// TestFaultDegradationReasonsRepeat: a fault-armed run reports the
// same degradation reasons every time, although its concurrently
// optimized instances share the armed site's hit count and so take
// different hits from run to run.
func TestFaultDegradationReasonsRepeat(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]string
	for i := 0; i < 5; i++ {
		inj, err := fault.New(1, fault.SiteExtract+":error@1+")
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunContext(context.Background(), tech, bm, Optimized, Params{Seed: 1, Fault: inj})
		if err != nil {
			t.Fatalf("run %d died instead of degrading: %v", i, err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("run %d: no degradation recorded", i)
		}
		if i == 0 {
			first = res.Degraded
		} else if !reflect.DeepEqual(res.Degraded, first) {
			t.Fatalf("run %d: Degraded = %v, run 0 had %v", i, res.Degraded, first)
		}
	}
}

// TestVerifyRejectsInjectedRouteFailure: the same fault surfaces as a
// route_failed violation through the verification path.
func TestVerifyRejectsInjectedRouteFailure(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams(t, fault.SiteRouteNet+":error@1")
	rep, err := VerifyContext(context.Background(), tech, bm, Conventional, p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == verify.RuleRouteFailed {
			found = true
		}
	}
	if !found {
		t.Errorf("no route_failed violation in %+v", rep.Violations)
	}
}

// TestFlowStageTimeout: a vanishing per-stage deadline fails the run
// with the deadline error — promptly, not by hanging.
func TestFlowStageTimeout(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	p.StageTimeout = time.Nanosecond
	start := time.Now()
	_, err = RunContext(context.Background(), tech, bm, Conventional, p)
	if err == nil {
		t.Fatal("run succeeded under a 1ns stage deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded in the chain", err)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Errorf("timeout took %v to surface", el)
	}
}

// TestFlowFingerprintUnchangedByDisabledRuntime: the fingerprint
// guarantee — a run with no armed faults and a generous deadline is
// identical (exact float equality, same placement, same routing) to
// the plain run, so the robustness machinery costs nothing when off.
func TestFlowFingerprintUnchangedByDisabledRuntime(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunContext(context.Background(), tech, bm, Optimized, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	// Armed-but-never-firing injector plus a huge stage deadline.
	p := faultParams(t, fault.SiteRouteNet+":error@1000000")
	p.StageTimeout = time.Hour
	guarded, err := RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Metrics) == 0 {
		t.Fatal("no metrics to compare")
	}
	for k, v := range base.Metrics {
		if gv := guarded.Metrics[k]; gv != v {
			t.Errorf("metric %s: %v vs %v (must be bit-identical)", k, v, gv)
		}
	}
	if base.Sims != guarded.Sims {
		t.Errorf("sims: %d vs %d", base.Sims, guarded.Sims)
	}
	for name, r := range base.Placement.Pos {
		if gr := guarded.Placement.Pos[name]; gr != r {
			t.Errorf("placement %s: %v vs %v", name, r, gr)
		}
	}
	for name, nr := range base.Routing.Nets {
		gnr := guarded.Routing.Nets[name]
		if gnr == nil || gnr.TotalLength() != nr.TotalLength() || gnr.Vias != nr.Vias {
			t.Errorf("routing %s differs", name)
		}
	}
	if len(guarded.Degraded) != 0 {
		t.Errorf("Degraded = %v on a healthy run", guarded.Degraded)
	}
}
