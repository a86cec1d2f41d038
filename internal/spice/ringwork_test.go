package spice_test

import (
	"context"
	"slices"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/numeric"
	"primopt/internal/pdk"
	"primopt/internal/spice"
)

// TestRingFactorWork pins the LU work of the post-layout ring's
// transient in its fill-reducing order: the seed-1 optimized 8-stage
// RO-VCO at 0.40 V, over the first window the evaluator runs there.
// Partial pivoting's order fills the 136-unknown matrix to 2,566
// entries and replays it in 22,240 multiply-subtracts; the ordered
// workspace must stay under about half of the one and a ninth of the
// other.
func TestRingFactorWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the optimized RO-VCO flow")
	}
	const (
		maxEntries = 1250
		maxMulSubs = 2500
		vctrl      = 0.40
		vdd        = 0.8
	)
	tech := pdk.Default()
	ctx := context.Background()
	bm, err := circuits.ROVCO(tech, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.RunContext(ctx, tech, bm, flow.Optimized, flow.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nl := res.Netlist.Clone()
	nl.Device("vcn").DC = vctrl
	nl.Device("vcp").DC = vdd - vctrl
	e, err := spice.New(ctx, tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	// The hook runs before each factorization, so it sees the fill the
	// previous one left. The operating point factors before the
	// transient workspace exists, so its matrices are skipped.
	var entries, mulSubs []int
	spice.SetFactorHook(e, func(*numeric.Matrix) {
		if ws := spice.TranWorkspace(e); ws != nil {
			if n, m := ws.Fill(); n > 0 {
				entries = append(entries, n)
				mulSubs = append(mulSubs, m)
			}
		}
	})
	if _, err := e.Tran(4e-9/1500, 4e-9, spice.TranOpts{IC: map[string]float64{"p0": vdd, "n0": 0}}); err != nil {
		t.Fatal(err)
	}
	if n := e.NumUnknowns(); n != 136 {
		t.Fatalf("ring has %d unknowns, want 136", n)
	}
	if len(entries) == 0 {
		t.Fatal("the transient never factored on the compact path")
	}
	if entries[0] > maxEntries {
		t.Errorf("first transient factorization holds %d fill entries, want at most %d", entries[0], maxEntries)
	}
	for i, m := range mulSubs {
		if m > maxMulSubs {
			t.Fatalf("factorization %d replays in %d multiply-subtracts, want at most %d", i, m, maxMulSubs)
		}
	}
	t.Logf("fill %d entries, %d multiply-subtracts per replay (first of %d factorizations); max %d / %d",
		entries[0], mulSubs[0], len(entries), slices.Max(entries), slices.Max(mulSubs))
}
