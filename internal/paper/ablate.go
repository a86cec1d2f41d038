package paper

import (
	"context"
	"fmt"
	"math"

	"primopt/internal/cellgen"
	"primopt/internal/extract"
	"primopt/internal/numeric"
	"primopt/internal/optimize"
	"primopt/internal/pdk"
	"primopt/internal/portopt"
	"primopt/internal/primlib"
	"primopt/internal/report"
)

// AblationBinning contrasts the paper's per-aspect-ratio-bin selection
// against keeping only the single global-minimum-cost option: binning
// hands the placer dimensionally diverse options at a small cost
// premium on the non-best bins.
func AblationBinning(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	res, err := optimize.OptimizeCtx(ctx, t, t.Fingerprint(), primlib.DiffPair, dpSizing(), dpBias(), optimize.Params{
		Bins: 3,
		Cons: tableIIIConstraints(),
	})
	if err != nil {
		return nil, err
	}
	tb := report.New("Ablation: aspect-ratio binning vs global minimum only",
		"Selection", "Config", "Aspect ratio", "Cost")
	best := res.Best()
	tb.Add("global min", best.Layout.Config.ID(),
		fmt.Sprintf("%.2f", best.Layout.AspectRatio),
		fmt.Sprintf("%.1f", best.Cost))
	arLo, arHi := math.Inf(1), math.Inf(-1)
	for _, s := range res.Selected {
		tb.Add(fmt.Sprintf("bin %d", s.Bin+1), s.Layout.Config.ID(),
			fmt.Sprintf("%.2f", s.Layout.AspectRatio),
			fmt.Sprintf("%.1f", s.Cost))
		arLo = math.Min(arLo, s.Layout.AspectRatio)
		arHi = math.Max(arHi, s.Layout.AspectRatio)
	}
	tb.Note("binned options span aspect ratios %.2f-%.2f; a single option gives the placer no shape freedom", arLo, arHi)
	return tb, nil
}

// AblationLDE evaluates the same layout options with the LDE models
// switched off: without LDEs the grouped AABB pattern looks as good
// as the symmetric patterns (its wires are even slightly shorter), so
// an LDE-blind selector would happily pick the layout whose offset
// explodes in silicon — the core argument of the paper.
func AblationLDE(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	noLDE := *t
	noLDE.LODVthRef = 0
	noLDE.LODMuFrac = 0
	noLDE.WPEVthRef = 0
	noLDE.GradVthPerNm = 0

	tb := report.New("Ablation: cost of DP patterns with and without LDE modeling",
		"Config", "Pattern", "Cost (LDE on)", "Cost (LDE off)")
	sz := dpSizing()
	bias := dpBias()
	cfgs := []cellgen.Config{
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABAB},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB},
	}
	costWith := func(tech *pdk.Tech, cfg cellgen.Config) (float64, error) {
		sch, err := primlib.DiffPair.EvaluateCtx(ctx, tech, sz, bias, nil, nil)
		if err != nil {
			return 0, err
		}
		metrics, err := primlib.DiffPair.CostMetrics(tech, sz, sch)
		if err != nil {
			return 0, err
		}
		lay, err := cellgen.Generate(tech, primlib.DiffPair.Spec(sz), cfg)
		if err != nil {
			return 0, err
		}
		ex, err := extract.Primitive(ctx, tech, lay)
		if err != nil {
			return 0, err
		}
		ev, err := primlib.DiffPair.EvaluateCtx(ctx, tech, sz, bias, ex, nil)
		if err != nil {
			return 0, err
		}
		c, _, err := primlib.Cost(metrics, ev)
		return c, err
	}
	for _, cfg := range cfgs {
		on, err := costWith(t, cfg)
		if err != nil {
			return nil, err
		}
		off, err := costWith(&noLDE, cfg)
		if err != nil {
			return nil, err
		}
		tb.Add(fmt.Sprintf("nfin=%d nf=%d m=%d", cfg.NFin, cfg.NF, cfg.M),
			cfg.Pattern.String(), fmt.Sprintf("%.1f", on), fmt.Sprintf("%.1f", off))
	}
	tb.Note("LDE off: AABB is indistinguishable from the symmetric patterns; LDE on: its offset term dominates")
	return tb, nil
}

// AblationCurvature contrasts the tuning stop rules on a measured
// cost-vs-wires sweep of the DP source mesh: stop at the
// diminishing-returns knee (the paper's rule for monotone curves)
// versus always sweeping to the maximum.
func AblationCurvature(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	sz := dpSizing()
	bias := dpBias()
	sch, err := primlib.DiffPair.EvaluateCtx(ctx, t, sz, bias, nil, nil)
	if err != nil {
		return nil, err
	}
	metrics, err := primlib.DiffPair.CostMetrics(t, sz, sch)
	if err != nil {
		return nil, err
	}
	lay, err := cellgen.Generate(t, primlib.DiffPair.Spec(sz),
		cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	if err != nil {
		return nil, err
	}
	const maxW = 10
	var curve []float64
	for n := 1; n <= maxW; n++ {
		for _, w := range []string{"s", "s_a", "s_b"} {
			lay.Wires[w].NWires = n
		}
		ex, err := extract.Primitive(ctx, t, lay)
		if err != nil {
			return nil, err
		}
		ev, err := primlib.DiffPair.EvaluateCtx(ctx, t, sz, bias, ex, nil)
		if err != nil {
			return nil, err
		}
		c, _, err := primlib.Cost(metrics, ev)
		if err != nil {
			return nil, err
		}
		curve = append(curve, c)
	}
	knee := numeric.KneeIndex(curve)
	minI, minV := numeric.ArgMin(curve)
	tb := report.New("Ablation: tuning stop rule on the DP source mesh",
		"Rule", "Wires", "Cost", "Sims spent")
	tb.Add("knee (paper)", knee+1, fmt.Sprintf("%.2f", curve[knee]), knee+1)
	tb.Add("full sweep min", minI+1, fmt.Sprintf("%.2f", minV), maxW)
	tb.Note("cost gap %.2f%% points for %d fewer sweep points", curve[knee]-minV, maxW-(knee+1))
	return tb, nil
}

// AblationReconcile contrasts the paper's disjoint-interval
// reconciliation (joint re-simulation over the gap, minimizing the
// summed cost) against the naive midpoint of the two intervals.
func AblationReconcile(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	m3 := pdk.Layer(2)
	mkDP := func() (*portopt.PrimInstance, error) {
		sz := dpSizing()
		bias := dpBias()
		lay, err := cellgen.Generate(t, primlib.DiffPair.Spec(sz),
			cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
		if err != nil {
			return nil, err
		}
		ex, err := extract.Primitive(ctx, t, lay)
		if err != nil {
			return nil, err
		}
		sch, err := primlib.DiffPair.EvaluateCtx(ctx, t, sz, bias, nil, nil)
		if err != nil {
			return nil, err
		}
		metrics, err := primlib.DiffPair.CostMetrics(t, sz, sch)
		if err != nil {
			return nil, err
		}
		return &portopt.PrimInstance{
			Name: "dp", Entry: primlib.DiffPair, Sizing: sz, Bias: bias, Ex: ex,
			Metrics: metrics,
			Routes: map[string]extract.Route{
				"d_a": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
				"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			},
			NetOf:     map[string]string{"d_a": "shared", "d_b": "other"},
			SymGroups: primlib.DiffPair.SymPorts,
		}, nil
	}
	mkCM := func() (*portopt.PrimInstance, error) {
		sz := primlib.Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
		bias := primlib.Bias{Vdd: 0.8, VD: 0.15, CLoad: 2e-15}
		lay, err := cellgen.Generate(t, primlib.CurrentMirror.Spec(sz),
			cellgen.Config{NFin: 12, NF: 10, M: 2, Dummies: 2, Pattern: cellgen.PatABAB})
		if err != nil {
			return nil, err
		}
		ex, err := extract.Primitive(ctx, t, lay)
		if err != nil {
			return nil, err
		}
		sch, err := primlib.CurrentMirror.EvaluateCtx(ctx, t, sz, bias, nil, nil)
		if err != nil {
			return nil, err
		}
		metrics, err := primlib.CurrentMirror.CostMetrics(t, sz, sch)
		if err != nil {
			return nil, err
		}
		return &portopt.PrimInstance{
			Name: "cm", Entry: primlib.CurrentMirror, Sizing: sz, Bias: bias, Ex: ex,
			Metrics: metrics,
			Routes: map[string]extract.Route{
				"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			},
			NetOf: map[string]string{"d_b": "shared"},
		}, nil
	}
	dp, err := mkDP()
	if err != nil {
		return nil, err
	}
	cm, err := mkCM()
	if err != nil {
		return nil, err
	}
	// Force a disjoint pair of constraints on the shared net.
	cons := []portopt.Constraint{
		{Prim: "dp", Net: "shared", WMin: 5, WMax: 6},
		{Prim: "cm", Net: "shared", WMin: 1, WMax: 2},
	}
	wires, _, err := portopt.Reconcile(ctx, t, t.Fingerprint(), []*portopt.PrimInstance{dp, cm}, cons, portopt.Params{MaxWires: 6})
	if err != nil {
		return nil, err
	}
	chosen := wires["shared"]
	naive := (5 + 2) / 2 // midpoint of the two intervals

	totalCost := func(n int) (float64, error) {
		tot := 0.0
		for _, pi := range []*portopt.PrimInstance{dp, cm} {
			ev, err := pi.Entry.EvaluateCtx(ctx, t, pi.Sizing, pi.Bias, pi.Ex, symRoutes(pi, "shared", n))
			if err != nil {
				return 0, err
			}
			c, _, err := primlib.Cost(pi.Metrics, ev)
			if err != nil {
				return 0, err
			}
			tot += c
		}
		return tot, nil
	}
	cChosen, err := totalCost(chosen)
	if err != nil {
		return nil, err
	}
	cNaive, err := totalCost(naive)
	if err != nil {
		return nil, err
	}
	tb := report.New("Ablation: disjoint-interval reconciliation rule",
		"Rule", "Wires", "Total cost")
	tb.Add("joint re-simulation (paper)", chosen, fmt.Sprintf("%.2f", cChosen))
	tb.Add("naive midpoint", naive, fmt.Sprintf("%.2f", cNaive))
	return tb, nil
}

// symRoutes mirrors portopt's route override for external use.
func symRoutes(pi *portopt.PrimInstance, net string, n int) map[string]extract.Route {
	out := make(map[string]extract.Route, len(pi.Routes))
	for w, r := range pi.Routes {
		if pi.NetOf[w] == net {
			r.NWires = n
		}
		out[w] = r
	}
	for _, group := range pi.SymGroups {
		hit := false
		for _, w := range group {
			if pi.NetOf[w] == net {
				hit = true
			}
		}
		if hit {
			for _, w := range group {
				if r, ok := out[w]; ok {
					r.NWires = n
					out[w] = r
				}
			}
		}
	}
	return out
}
