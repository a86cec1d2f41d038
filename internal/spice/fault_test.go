package spice

import (
	"context"
	"errors"
	"strings"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/fault"
	"primopt/internal/obs"
)

// traceCtx returns a context carrying a fresh trace, so the engine's
// escape-hatch counters are observable.
func traceCtx() (context.Context, *obs.Trace) {
	tr := obs.New()
	return obs.With(context.Background(), tr), tr
}

// faultEngine builds an engine on ctx with a fault injector armed by
// spec.
func faultEngine(t *testing.T, ctx context.Context, nl *circuit.Netlist, spec string) *Engine {
	t.Helper()
	inj, err := fault.New(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(fault.With(ctx, inj), tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dividerNetlist halves its input source, at vin, onto node out.
func dividerNetlist(vin float64) *circuit.Netlist {
	return circuit.NewBuilder("div").
		V("vin", "in", "0", vin).
		R("r1", "in", "out", 1e3).
		R("r2", "out", "0", 1e3).
		Netlist()
}

// TestDCSweepWarmStartFallback injects a nonconvergence into the
// second newtonDC call — the first warm-started sweep point — and
// asserts the sweep survives via the full-OP fallback: correct
// values, and exactly one spice.dc.nonconverged on the counter.
func TestDCSweepWarmStartFallback(t *testing.T) {
	ctx, tr := traceCtx()
	e := faultEngine(t, ctx, dividerNetlist(0), fault.SiteSpiceDC+":error@2")
	sw, err := e.DCSweep("vin", 0, 1, 0.1)
	if err != nil {
		t.Fatalf("sweep did not survive the warm-start failure: %v", err)
	}
	if len(sw.Values) != 11 {
		t.Fatalf("points = %d, want 11", len(sw.Values))
	}
	v := sw.Volt("out")
	for k, in := range sw.Values {
		if diff := v[k] - in/2; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("V(out) at %g = %g, want %g", in, v[k], in/2)
		}
	}
	if n := tr.Counter("spice.dc.nonconverged").Value(); n != 1 {
		t.Errorf("spice.dc.nonconverged = %d, want 1", n)
	}
}

// TestOPGminFallback injects a nonconvergence into the plain Newton
// solve; OP must recover through gmin stepping and count the
// fallback.
func TestOPGminFallback(t *testing.T) {
	ctx, tr := traceCtx()
	e := faultEngine(t, ctx, dividerNetlist(0), fault.SiteSpiceDC+":error@1")
	op, err := e.OP()
	if err != nil {
		t.Fatalf("OP did not survive the injected nonconvergence: %v", err)
	}
	if v := op.Volt("out"); v != 0 {
		t.Errorf("V(out) = %g, want 0", v)
	}
	if n := tr.Counter("spice.op.fallbacks").Value(); n != 1 {
		t.Errorf("spice.op.fallbacks = %d, want 1", n)
	}
	if n := tr.Counter("spice.dc.nonconverged").Value(); n != 1 {
		t.Errorf("spice.dc.nonconverged = %d, want 1", n)
	}
}

func rcNetlist() *circuit.Netlist {
	return circuit.NewBuilder("rcstep").
		VPulse("vin", "in", "0", 0, 1, 0, 1e-15, 1e-15, 1, 0).
		R("r1", "in", "out", 1e3).
		C("c1", "out", "0", 1e-12).
		Netlist()
}

// TestTranStepHalvingRecovers injects one step nonconvergence; the
// recursive halving ladder must absorb it and complete the analysis.
func TestTranStepHalvingRecovers(t *testing.T) {
	ctx, tr := traceCtx()
	e := faultEngine(t, ctx, rcNetlist(), fault.SiteSpiceTranStep+":error@1")
	res, err := e.Tran(1e-11, 1e-9, TranOpts{UIC: true})
	if err != nil {
		t.Fatalf("tran did not survive one failed step: %v", err)
	}
	if len(res.Times) < 100 {
		t.Errorf("points = %d, want the full run", len(res.Times))
	}
	if n := tr.Counter("spice.tran.halvings").Value(); n < 1 {
		t.Errorf("spice.tran.halvings = %d, want >= 1", n)
	}
}

// TestTranStepHalvingExhausts arms every step (@1+): halving runs out
// of depth and the analysis must stall with a structured error — no
// panic, no hang.
func TestTranStepHalvingExhausts(t *testing.T) {
	ctx, tr := traceCtx()
	e := faultEngine(t, ctx, rcNetlist(), fault.SiteSpiceTranStep+":error@1+")
	_, err := e.Tran(1e-11, 1e-9, TranOpts{UIC: true})
	if err == nil {
		t.Fatal("tran succeeded with every step nonconvergent")
	}
	if !strings.Contains(err.Error(), "tran stalled") {
		t.Errorf("err = %v, want a 'tran stalled' error", err)
	}
	if !fault.IsInjected(err) {
		t.Errorf("err = %v, want the injected fault in the chain", err)
	}
	if n := tr.Counter("spice.tran.failures").Value(); n != 1 {
		t.Errorf("spice.tran.failures = %d, want 1", n)
	}
}

// TestTranFaultSiteAborts arms the whole-analysis site.
func TestTranFaultSiteAborts(t *testing.T) {
	e := faultEngine(t, context.Background(), rcNetlist(), fault.SiteSpiceTran+":error@1")
	if _, err := e.Tran(1e-11, 1e-9, TranOpts{UIC: true}); !fault.IsInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
}

// TestEngineCancellation: a canceled context stops OP and Tran with
// the context error rather than a convergence report.
func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := New(ctx, tech, rcNetlist())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OP(); !errors.Is(err, context.Canceled) {
		t.Errorf("OP err = %v, want context.Canceled", err)
	}
	if _, err := e.Tran(1e-11, 1e-9, TranOpts{UIC: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("Tran err = %v, want context.Canceled", err)
	}
}
