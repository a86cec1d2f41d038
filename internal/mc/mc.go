// Package mc adds Monte Carlo mismatch analysis on top of the
// primitive library — the "process variations" bullet of the paper's
// primitive-selection step: designers account for random variations
// during sizing, and layout patterns control the *systematic* part.
// Sampling random Vth mismatch (Pelgrom-scaled) on top of each layout
// option's systematic offset yields the offset distribution per
// pattern, quantifying how much margin the pattern choice buys.
package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"primopt/internal/cellgen"
	"primopt/internal/extract"
	"primopt/internal/lde"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// OffsetStats summarizes a sampled offset distribution.
type OffsetStats struct {
	Config     cellgen.Config
	Systematic float64 // V, the layout's deterministic offset
	Mean       float64 // V
	Sigma      float64 // V
	P99        float64 // V, |offset| 99th percentile
	Samples    int
}

// Params controls the sampling.
type Params struct {
	Samples int   // default 500
	Seed    int64 // deterministic sampling
}

// OffsetMC samples the input-referred offset of a differential-pair
// layout: the simulated systematic offset of the extracted layout
// plus Pelgrom-scaled random Vth mismatch. The random part uses the
// analytic sensitivity (offset ≈ ΔVth for a matched pair), so one
// simulation per layout suffices — the "cheap" philosophy of the
// paper.
func OffsetMC(ctx context.Context, t *pdk.Tech, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias,
	cfg cellgen.Config, p Params) (*OffsetStats, error) {
	if p.Samples <= 0 {
		p.Samples = 500
	}
	lay, err := cellgen.Generate(t, e.Spec(sz), cfg)
	if err != nil {
		return nil, err
	}
	ex, err := extract.Primitive(ctx, t, lay)
	if err != nil {
		return nil, err
	}
	ev, err := e.EvaluateCtx(ctx, t, sz, bias, ex, nil)
	if err != nil {
		return nil, err
	}
	sys, ok := ev.Values["offset"]
	if !ok {
		return nil, fmt.Errorf("mc: %s has no offset metric", e.Kind)
	}
	sigma := lde.RandomOffsetSigma(t, sz.TotalFins)

	rng := rand.New(rand.NewSource(p.Seed))
	abs := make([]float64, p.Samples)
	sum, sumsq := 0.0, 0.0
	for i := 0; i < p.Samples; i++ {
		off := sys + rng.NormFloat64()*sigma
		sum += off
		sumsq += off * off
		abs[i] = math.Abs(off)
	}
	n := float64(p.Samples)
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	sort.Float64s(abs)
	p99 := abs[int(0.99*float64(len(abs)-1))]
	return &OffsetStats{
		Config:     cfg,
		Systematic: sys,
		Mean:       mean,
		Sigma:      math.Sqrt(variance),
		P99:        p99,
		Samples:    p.Samples,
	}, nil
}

// CompareOffsets runs OffsetMC across layout configurations and
// returns them sorted by P99 — the pattern ranking a yield-driven
// designer cares about.
func CompareOffsets(ctx context.Context, t *pdk.Tech, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias,
	cfgs []cellgen.Config, p Params) ([]*OffsetStats, error) {
	out := make([]*OffsetStats, 0, len(cfgs))
	for _, cfg := range cfgs {
		st, err := OffsetMC(ctx, t, e, sz, bias, cfg, p)
		if err != nil {
			return nil, fmt.Errorf("mc: config %s: %w", cfg.ID(), err)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P99 < out[j].P99 })
	return out, nil
}
