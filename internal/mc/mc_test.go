package mc

import (
	"context"
	"math"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/lde"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

var tech = pdk.Default()

func dpSetup() (primlib.Sizing, primlib.Bias) {
	return primlib.Sizing{TotalFins: 960, L: 14},
		primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
}

func TestOffsetMCStatistics(t *testing.T) {
	sz, bias := dpSetup()
	cfg := cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA}
	st, err := OffsetMC(context.Background(), tech, primlib.DiffPair, sz, bias, cfg, Params{Samples: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sigma := lde.RandomOffsetSigma(tech, sz.TotalFins)
	// The sampled sigma matches the Pelgrom model within MC noise.
	if math.Abs(st.Sigma-sigma)/sigma > 0.1 {
		t.Errorf("sampled sigma %g vs model %g", st.Sigma, sigma)
	}
	// Common-centroid: mean ≈ systematic ≈ 0, so P99 ≈ 2.6 sigma.
	if math.Abs(st.Systematic) > sigma/3 {
		t.Errorf("ABBA systematic offset = %g", st.Systematic)
	}
	if st.P99 < 2*sigma || st.P99 > 3.5*sigma {
		t.Errorf("P99 = %g vs sigma %g", st.P99, sigma)
	}
}

func TestCompareOffsetsRanksPatterns(t *testing.T) {
	sz, bias := dpSetup()
	cfgs := []cellgen.Config{
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABAB},
	}
	stats, err := CompareOffsets(context.Background(), tech, primlib.DiffPair, sz, bias, cfgs, Params{Samples: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %d", len(stats))
	}
	// AABB's systematic component puts it last in the P99 ranking.
	if stats[len(stats)-1].Config.Pattern != cellgen.PatAABB {
		t.Errorf("worst P99 pattern = %v, want AABB", stats[len(stats)-1].Config.Pattern)
	}
	// Sorted ascending.
	for i := 1; i < len(stats); i++ {
		if stats[i].P99 < stats[i-1].P99 {
			t.Error("stats not sorted by P99")
		}
	}
	for _, st := range stats {
		t.Logf("%-28s sys=%+.3g sigma=%.3g p99=%.3g",
			st.Config.ID(), st.Systematic, st.Sigma, st.P99)
	}
}

func TestOffsetMCDeterministic(t *testing.T) {
	sz, bias := dpSetup()
	cfg := cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABAB}
	a, err := OffsetMC(context.Background(), tech, primlib.DiffPair, sz, bias, cfg, Params{Samples: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OffsetMC(context.Background(), tech, primlib.DiffPair, sz, bias, cfg, Params{Samples: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.P99 != b.P99 || a.Sigma != b.Sigma {
		t.Error("MC not deterministic under a fixed seed")
	}
}

func TestOffsetMCErrors(t *testing.T) {
	sz, bias := dpSetup()
	// A primitive without an offset metric is rejected.
	if _, err := OffsetMC(context.Background(), tech, primlib.CSAmp, primlib.Sizing{TotalFins: 64, L: 14},
		bias, cellgen.Config{NFin: 8, NF: 8, M: 1, Dummies: 2, Pattern: cellgen.PatA},
		Params{Samples: 10}); err == nil {
		t.Error("offset MC on an offset-less primitive accepted")
	}
	// Bad config propagates.
	if _, err := OffsetMC(context.Background(), tech, primlib.DiffPair, sz, bias,
		cellgen.Config{NFin: 7, NF: 7, M: 7}, Params{}); err == nil {
		t.Error("bad config accepted")
	}
}
