package circuits

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"primopt/internal/fault"
	"primopt/internal/obs"
)

var curveVctrls = []float64{0.35, 0.40, 0.45, 0.50, 0.60, 0.80}

// serialCurve is the serial fold EvalVCOCurveCtx replaced: one
// EvalVCOAtCtx per control voltage, in order.
func serialCurve(t *testing.T, ctx context.Context, bm *Benchmark) map[string]float64 {
	t.Helper()
	fmax, fmin, vlo, vhi := 0.0, 0.0, 0.0, 0.0
	any := false
	for _, v := range curveVctrls {
		f, ok, err := EvalVCOAtCtx(ctx, tech, bm.Schematic, v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		if !any {
			fmax, fmin, vlo, vhi, any = f, f, v, v, true
			continue
		}
		fmax, fmin = math.Max(fmax, f), math.Min(fmin, f)
		vlo, vhi = math.Min(vlo, v), math.Max(vhi, v)
	}
	if !any {
		t.Fatal("no oscillation at any control voltage")
	}
	return map[string]float64{"fmax": fmax, "fmin": fmin, "vlo": vlo, "vhi": vhi}
}

// withProcs runs fn at GOMAXPROCS n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestVCOCurvePoolMatchesSerial(t *testing.T) {
	bm, err := ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := serialCurve(t, ctx, bm)
	for _, procs := range []int{1, 4} {
		var got map[string]float64
		withProcs(procs, func() { got, err = EvalVCOCurveCtx(ctx, tech, bm.Schematic, curveVctrls) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for k, w := range want {
			if math.Float64bits(got[k]) != math.Float64bits(w) {
				t.Errorf("GOMAXPROCS %d: %s = %.17g, serial %.17g", procs, k, got[k], w)
			}
		}
	}
}

// TestEvalPointsRecordTheirWork runs a curve on its own trace. Each
// eval.point takes its work from its own engine, so although the
// points run concurrently and share the trace's counters, their
// tran_steps and newton_iters must sum to spice.tran.steps and
// spice.tran.newton_iters.
func TestEvalPointsRecordTheirWork(t *testing.T) {
	bm, err := ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	ctx := obs.With(context.Background(), tr)
	withProcs(4, func() { _, err = EvalVCOCurveCtx(ctx, tech, bm.Schematic, curveVctrls) })
	if err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.Snapshot()
	var points, steps, iters int64
	for _, s := range spans {
		if s.Name != "eval.point" {
			continue
		}
		points++
		st, ok1 := s.Attrs["tran_steps"].(int64)
		it, ok2 := s.Attrs["newton_iters"].(int64)
		fa, ok3 := s.Attrs["factorizations"].(int64)
		if !ok1 || !ok2 || !ok3 || st <= 0 || it < st || fa <= 0 || fa > it {
			t.Errorf("eval.point at %v: tran_steps %v, newton_iters %v, factorizations %v",
				s.Attrs["vctrl"], s.Attrs["tran_steps"], s.Attrs["newton_iters"], s.Attrs["factorizations"])
		}
		steps += st
		iters += it
	}
	if points != int64(len(curveVctrls)) {
		t.Fatalf("%d eval.point spans, want %d", points, len(curveVctrls))
	}
	if want := tr.Counter("spice.tran.steps").Value(); steps != want {
		t.Errorf("points' tran_steps sum to %d, trace counts %d", steps, want)
	}
	if want := tr.Counter("spice.tran.newton_iters").Value(); iters != want {
		t.Errorf("points' newton_iters sum to %d, trace counts %d", iters, want)
	}
}

// TestSweepFailureSemantics scripts a sweep in which point 3 fails
// first and point 2 fails after it, while points 0 and 1 are still
// running: the sweep must report point 2's error, cancel the points
// after it (4 and 5 never run), and let points 0 and 1 finish.
func TestSweepFailureSemantics(t *testing.T) {
	err2, err3 := errors.New("point 2"), errors.New("point 3")
	failed3, failed2 := make(chan struct{}), make(chan struct{})
	var ran [6]atomic.Bool
	eval := func(ctx context.Context, i int) (float64, bool, error) {
		ran[i].Store(true)
		switch i {
		case 0, 1:
			<-failed2
			return float64(i), true, nil
		case 2:
			<-failed3
			close(failed2)
			return 0, false, err2
		case 3:
			close(failed3)
			return 0, false, err3
		}
		<-ctx.Done()
		return 0, false, ctx.Err()
	}
	var pts []vcoPoint
	done := make(chan struct{})
	go withProcs(4, func() {
		defer close(done)
		pts = sweep(context.Background(), 6, eval)
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not finish: a point after the failure was not canceled")
	}
	for i := 0; i < 2; i++ {
		if p := pts[i]; p.err != nil || !p.ok || p.hz != float64(i) {
			t.Errorf("point %d before the failure = %+v, want it finished", i, p)
		}
	}
	if pts[2].err != err2 {
		t.Errorf("point 2 err = %v, want %v", pts[2].err, err2)
	}
	for i := 4; i < 6; i++ {
		if ran[i].Load() {
			t.Errorf("point %d ran after a lower-index failure", i)
		}
		if !errors.Is(pts[i].err, context.Canceled) {
			t.Errorf("point %d err = %v, want context.Canceled", i, pts[i].err)
		}
	}
	// The fold reports the lowest-index failure.
	for _, p := range pts {
		if p.err != nil {
			if p.err != err2 {
				t.Errorf("lowest-index error = %v, want %v", p.err, err2)
			}
			break
		}
	}
}

func TestVCOCurveCanceledCaller(t *testing.T) {
	bm, err := ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalVCOCurveCtx(ctx, tech, bm.Schematic, curveVctrls); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled sweep err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	withProcs(4, func() { _, err = EvalVCOCurveCtx(ctx, tech, bm.Schematic, curveVctrls) })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("sweep canceled mid-run err = %v, want context.Canceled", err)
	}
}

// TestVCOCurvePanicReachesCaller arms a transient panic: it must
// surface on the caller's goroutine, where this test recovers it,
// rather than kill the process from a pool goroutine.
func TestVCOCurvePanicReachesCaller(t *testing.T) {
	bm, err := ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(1, fault.SiteSpiceTran+":panic@1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.With(context.Background(), inj)
	defer func() {
		rec := recover()
		fe, ok := rec.(*fault.Error)
		if !ok || fe.Site != fault.SiteSpiceTran {
			t.Errorf("recovered %v (%T), want the injected spice.tran panic", rec, rec)
		}
	}()
	withProcs(4, func() { _, _ = EvalVCOCurveCtx(ctx, tech, bm.Schematic, curveVctrls) })
	t.Error("armed sweep returned instead of panicking")
}
