package flow

import (
	"context"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/circuits"
	"primopt/internal/geom"
	"primopt/internal/verify"
)

// The golden layout-verification matrix: every benchmark circuit, in
// both the conventional and the optimized methodology, must come out
// of the flow with zero DRC/LVS violations. These call runLayout
// directly (geometry only — no post-layout simulation), with
// VerifyWarn so a failure reports every violation instead of just the
// first summary line.

func runGolden(t *testing.T, bm *circuits.Benchmark, mode Mode) {
	t.Helper()
	p := fastParams()
	p.Verify = VerifyParams{Mode: VerifyWarn}
	res := &Result{Mode: mode, Benchmark: bm.Name}
	if _, err := runLayout(context.Background(), tech, tech.Fingerprint(), bm, mode, p, res, nil); err != nil {
		t.Fatalf("%s/%v: runLayout: %v", bm.Name, mode, err)
	}
	rep := res.Verify
	if rep == nil {
		t.Fatalf("%s/%v: verification did not run", bm.Name, mode)
	}
	if rep.Shapes == 0 {
		t.Fatalf("%s/%v: no shapes materialized", bm.Name, mode)
	}
	if !rep.Clean() {
		max := 12
		if len(rep.Violations) < max {
			max = len(rep.Violations)
		}
		t.Errorf("%s/%v: %s", bm.Name, mode, rep.Summary())
		for _, v := range rep.Violations[:max] {
			t.Logf("  %s", v.String())
		}
	}
}

func TestGoldenVerifyCSAmp(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	runGolden(t, bm, Conventional)
	runGolden(t, bm, Optimized)
}

func TestGoldenVerifyOTA5T(t *testing.T) {
	bm, err := circuits.OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	runGolden(t, bm, Conventional)
	if testing.Short() {
		t.Skip("optimized OTA verification in -short mode")
	}
	runGolden(t, bm, Optimized)
}

func TestGoldenVerifyStrongARM(t *testing.T) {
	bm, err := circuits.StrongARM(tech)
	if err != nil {
		t.Fatal(err)
	}
	runGolden(t, bm, Conventional)
	if testing.Short() {
		t.Skip("optimized StrongARM verification in -short mode")
	}
	runGolden(t, bm, Optimized)
}

func TestGoldenVerifyROVCO(t *testing.T) {
	bm, err := circuits.ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	runGolden(t, bm, Conventional)
	if testing.Short() {
		t.Skip("optimized RO-VCO verification in -short mode")
	}
	runGolden(t, bm, Optimized)
}

// TestVerifyFailMode checks the fail-fast disposition: a run with
// VerifyFail and an impossible rule deck must abort with an error
// mentioning verification.
func TestVerifyFailMode(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	rules := verify.DefaultRules(tech)
	rules.MinWidth[0] = 10000 // nothing passes
	p.Verify = VerifyParams{Mode: VerifyFail, Options: verify.Options{Rules: rules}}
	res := &Result{Mode: Conventional, Benchmark: bm.Name}
	if _, err := runLayout(context.Background(), tech, tech.Fingerprint(), bm, Conventional, p, res, nil); err == nil {
		t.Fatal("VerifyFail with an impossible rule deck did not abort the run")
	}
}

// layoutInputs runs the layout portion with verification off and
// returns the pieces runVerification would hand to verify.CheckTop,
// so tests can corrupt them in between.
func layoutInputs(t *testing.T, bm *circuits.Benchmark, p Params) (map[string]*cellgen.Layout, *Result) {
	t.Helper()
	res := &Result{Mode: Conventional, Benchmark: bm.Name}
	choices, err := runLayout(context.Background(), tech, tech.Fingerprint(), bm, Conventional, p, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]*cellgen.Layout{}
	for name, ch := range choices {
		layouts[name] = ch.ex.Layout
	}
	return layouts, res
}

// TestVerifyDetectsNetlistMismatch displaces one placed block after
// routing: its terminals end up geometrically disconnected from the
// routed tree, so the reconstructed netlist no longer matches the
// schematic and the LVS comparison must report net mismatches.
func TestVerifyDetectsNetlistMismatch(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	layouts, res := layoutInputs(t, bm, p)
	name := bm.Insts[0].Name
	res.Placement.Pos[name] = res.Placement.Pos[name].Translate(
		geom.Point{X: res.Placement.BBox.W() + 4000})
	rep := verify.CheckTop(tech, verify.TopInput{
		Bench:     bm,
		Placement: res.Placement,
		Routing:   res.Routing,
		Layouts:   layouts,
		Region:    routeRegion(res.Placement),
	}, p.Verify.Options)
	if rep.Count(verify.RuleNet) == 0 {
		t.Errorf("displaced block produced no net_mismatch violations: %s", rep.Summary())
	}
}

// TestVerifyDetectsDeviceMismatch shrinks one chosen layout's per-unit
// fin count behind the flow's back: the realized device no longer
// matches the schematic sizing and the device comparison must flag it.
func TestVerifyDetectsDeviceMismatch(t *testing.T) {
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	layouts, res := layoutInputs(t, bm, p)
	name := bm.Insts[0].Name
	corrupt := *layouts[name]
	corrupt.Config.NFin++
	layouts[name] = &corrupt
	rep := verify.CheckTop(tech, verify.TopInput{
		Bench:     bm,
		Placement: res.Placement,
		Routing:   res.Routing,
		Layouts:   layouts,
		Region:    routeRegion(res.Placement),
	}, p.Verify.Options)
	if rep.Count(verify.RuleDevice) == 0 {
		t.Errorf("corrupted fin count produced no device_mismatch violations: %s", rep.Summary())
	}
}
