package optimize

import (
	"context"
	"errors"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/fault"
	"primopt/internal/obs"
)

// TestGuardConvertsPanics: the worker-pool guard converts panics to
// labeled errors and counts them, while passing errors through. The
// three task labels render exactly as the eagerly formatted labels
// they replace did.
func TestGuardConvertsPanics(t *testing.T) {
	tr := obs.New()
	cfg := cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABBA}
	for _, tc := range []struct {
		task task
		want string
	}{
		{task{kind: "selection config", cfg: cfg}, "optimize: selection config nfin=8;nf=20;m=6;ABBA: recovered panic: boom"},
		{task{kind: "tuning", cfg: cfg}, "optimize: tuning nfin=8;nf=20;m=6;ABBA: recovered panic: boom"},
		{task{kind: "joint sweep", combo: []int{3, 1}}, "optimize: joint sweep [3 1]: recovered panic: boom"},
	} {
		err := guard(tr, tc.task, func() error { panic("boom") })
		if err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
	if n := tr.Counter("optimize.worker_panics").Value(); n != 3 {
		t.Errorf("optimize.worker_panics = %d, want 3", n)
	}

	x := task{kind: "tuning", cfg: cfg}
	sentinel := errors.New("plain failure")
	if err := guard(tr, x, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("guard altered a plain error: %v", err)
	}
	if err := guard(tr, x, func() error { return nil }); err != nil {
		t.Errorf("guard invented an error: %v", err)
	}
	// A panic with an error value stays unwrappable.
	werr := guard(tr, x, func() error { panic(sentinel) })
	if !errors.Is(werr, sentinel) {
		t.Errorf("error-valued panic not unwrappable: %v", werr)
	}
	if want := "optimize: tuning nfin=8;nf=20;m=6;ABBA: recovered panic: plain failure"; werr.Error() != want {
		t.Errorf("err = %q, want %q", werr, want)
	}
}

// TestOptimizeExtractFaultFailsCleanly: an armed extract site makes
// OptimizeCtx fail with a structured injected error (the flow layer
// above then degrades to the conventional candidate).
func TestOptimizeExtractFaultFailsCleanly(t *testing.T) {
	e, sz, bias := dpSetup()
	inj, err := fault.New(1, fault.SiteExtract+":error@1+")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.With(context.Background(), inj)
	_, err = OptimizeCtx(ctx, tech, techFP, e, sz, bias, Params{Bins: 2, MaxWires: 4, Cons: smallCons()})
	if err == nil {
		t.Fatal("Optimize succeeded with extraction failing everywhere")
	}
	if !fault.IsInjected(err) {
		t.Errorf("err = %v, want the injected fault in the chain", err)
	}
}

// TestOptimizeCancellation: a dead context aborts before any SPICE
// work with the context error.
func TestOptimizeCancellation(t *testing.T) {
	e, sz, bias := dpSetup()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := OptimizeCtx(ctx, tech, techFP, e, sz, bias, Params{Bins: 2, MaxWires: 4, Cons: smallCons()})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
