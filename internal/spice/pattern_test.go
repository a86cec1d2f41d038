package spice_test

import (
	"context"
	"testing"

	"primopt/internal/circuit"
	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/numeric"
	"primopt/internal/pdk"
	"primopt/internal/spice"
)

// TestPatternCoversMatrices checks the engine's structural pattern
// against the matrices it really factors: for every benchmark
// circuit's schematic and optimized post-layout netlist, every nonzero
// of every matrix the operating point and a transient hand to the LU
// workspace must lie inside the pattern. The compact LU path drops
// whatever lies outside, so a miss here would be a wrong answer there.
func TestPatternCoversMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five optimized flows")
	}
	tech := pdk.Default()
	ctx := context.Background()
	for _, name := range circuits.Names() {
		bm, err := circuits.Build(tech, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := flow.RunContext(ctx, tech, bm, flow.Optimized, flow.Params{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, nl := range []*circuit.Netlist{bm.Schematic, res.Netlist} {
			checkCoverage(t, ctx, tech, name, nl)
		}
	}
}

func checkCoverage(t *testing.T, ctx context.Context, tech *pdk.Tech, name string, nl *circuit.Netlist) {
	t.Helper()
	e, err := spice.New(ctx, tech, nl)
	if err != nil {
		t.Fatal(err)
	}
	pat := spice.EnginePattern(e)
	matrices, misses := 0, 0
	spice.SetFactorHook(e, func(m *numeric.Matrix) {
		matrices++
		for i := 0; i < m.N; i++ {
			for j := 0; j < m.N; j++ {
				if m.At(i, j) != 0 && !pat.Contains(i, j) {
					if misses++; misses <= 5 {
						t.Errorf("%s (n=%d): entry (%d,%d) = %g outside the pattern", name, m.N, i, j, m.At(i, j))
					}
				}
			}
		}
	})
	if _, err := e.OP(); err != nil {
		t.Fatalf("%s: OP: %v", name, err)
	}
	ops := matrices
	if _, err := e.Tran(10e-12, 1e-9, spice.TranOpts{}); err != nil {
		t.Fatalf("%s: tran: %v", name, err)
	}
	if ops == 0 || matrices == ops {
		t.Errorf("%s (n=%d): OP factored %d matrices, transient %d; want both > 0", name, e.NumUnknowns(), ops, matrices-ops)
	}
	t.Logf("%s: n=%d, %d matrices checked", name, e.NumUnknowns(), matrices)
}
