// Package paper regenerates every table and figure of the paper's
// evaluation from the library's own machinery. Each function returns
// a report.Table whose rows mirror the published artifact; the
// benchmark harness (bench_test.go) and the primopt CLI both consume
// these. Absolute values reflect the synthetic PDK; the shapes —
// orderings, crossovers, blow-ups — are the reproduction targets (see
// DESIGN.md and EXPERIMENTS.md).
package paper

import (
	"context"
	"fmt"
	"math"
	"time"

	"primopt/internal/cellgen"
	"primopt/internal/circuits"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/flow"
	"primopt/internal/optimize"
	"primopt/internal/pdk"
	"primopt/internal/portopt"
	"primopt/internal/primlib"
	"primopt/internal/report"
	"primopt/internal/units"
)

// dpSizing is the running differential-pair example of Sections II-III
// (the paper's W/L = 46µm/14nm pair, realized as 960 fins).
func dpSizing() primlib.Sizing { return primlib.Sizing{TotalFins: 960, L: 14} }

func dpBias() primlib.Bias {
	return primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
}

// tableIIIConstraints restricts enumeration to the paper's Table III
// configuration set (nfin in {8, 12, 16, 24}).
func tableIIIConstraints() *cellgen.Constraints {
	return &cellgen.Constraints{MinNFin: 8, MaxNFin: 24, MaxM: 6}
}

// Fig2 reproduces the motivating experiment: the common-source
// amplifier's circuit metrics for the schematic, a narrow-wire layout
// (1 wire everywhere), a wide-wire layout (maximum parallel wires),
// and the optimized layout produced by the full flow.
func Fig2(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	bm, err := circuits.CommonSource(t)
	if err != nil {
		return nil, err
	}
	p := flow.Params{Seed: 1}

	sch, err := flow.RunContext(ctx, t, bm, flow.Schematic, p)
	if err != nil {
		return nil, err
	}
	narrow, err := flow.RunContext(ctx, t, bm, flow.Conventional, p) // compact cell, single wires
	if err != nil {
		return nil, err
	}
	wide, err := flow.RunFixedWiresContext(ctx, t, bm, 8, p) // everything at max width
	if err != nil {
		return nil, err
	}
	opt, err := flow.RunContext(ctx, t, bm, flow.Optimized, p)
	if err != nil {
		return nil, err
	}

	tb := report.New("Fig. 2: common-source amplifier wire-width trade-off",
		"Metric", "Schematic", "Narrow", "Wide", "Optimized")
	row := func(label, key, unit string, scale float64) {
		tb.Add(label,
			fmt.Sprintf("%.4g%s", sch.Metrics[key]*scale, unit),
			fmt.Sprintf("%.4g%s", narrow.Metrics[key]*scale, unit),
			fmt.Sprintf("%.4g%s", wide.Metrics[key]*scale, unit),
			fmt.Sprintf("%.4g%s", opt.Metrics[key]*scale, unit))
	}
	row("Gain (dB)", "gain_db", "", 1)
	row("UGF (GHz)", "ugf", "", 1e-9)
	row("Power (uW)", "power", "", 1e6)
	return tb, nil
}

// Table1 reproduces the primitive-level metrics of the common-source
// amplifier's two primitives under the same four wire conditions.
func Table1(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	bm, err := circuits.CommonSource(t)
	if err != nil {
		return nil, err
	}
	op, err := bm.SchematicOPCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	cs1 := bm.Inst("cs1")
	cs2 := bm.Inst("cs2")
	e1, err := primlib.Lookup(ctx, cs1.Kind)
	if err != nil {
		return nil, err
	}
	e2, err := primlib.Lookup(ctx, cs2.Kind)
	if err != nil {
		return nil, err
	}
	b1, b2 := cs1.Bias(op), cs2.Bias(op)

	evalAt := func(e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, wires int) (map[string]float64, error) {
		if wires == 0 { // schematic
			ev, err := e.EvaluateCtx(ctx, t, sz, bias, nil, nil)
			if err != nil {
				return nil, err
			}
			return ev.Values, nil
		}
		lays, err := e.FindLayouts(ctx, t, sz, nil)
		if err != nil {
			return nil, err
		}
		lay := lays[0]
		for _, l := range lays {
			if l.BBox.Area() < lay.BBox.Area() {
				lay = l
			}
		}
		for _, w := range lay.Wires {
			w.NWires = wires
		}
		ex, err := extract.Primitive(ctx, t, lay)
		if err != nil {
			return nil, err
		}
		ev, err := e.EvaluateCtx(ctx, t, sz, bias, ex, nil)
		if err != nil {
			return nil, err
		}
		return ev.Values, nil
	}
	// Optimized: Algorithm 1's best option.
	pdkFP := t.Fingerprint()
	evalOpt := func(e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias) (map[string]float64, error) {
		r, err := optimize.OptimizeCtx(ctx, t, pdkFP, e, sz, bias, optimize.Params{Bins: 3})
		if err != nil {
			return nil, err
		}
		return r.Best().Eval.Values, nil
	}

	v1 := map[string]map[string]float64{}
	v2 := map[string]map[string]float64{}
	for name, wires := range map[string]int{"sch": 0, "narrow": 1, "wide": 8} {
		var err error
		if v1[name], err = evalAt(e1, cs1.Sizing, b1, wires); err != nil {
			return nil, err
		}
		if v2[name], err = evalAt(e2, cs2.Sizing, b2, wires); err != nil {
			return nil, err
		}
	}
	var err1, err2 error
	v1["opt"], err1 = evalOpt(e1, cs1.Sizing, b1)
	v2["opt"], err2 = evalOpt(e2, cs2.Sizing, b2)
	if err1 != nil {
		return nil, err1
	}
	if err2 != nil {
		return nil, err2
	}

	tb := report.New("Table I: primitive-level metrics, common-source amplifier",
		"Metric", "Schematic", "Narrow wire", "Wide wire", "Optimized")
	add := func(label string, vals map[string]map[string]float64, key string, format func(float64) string) {
		tb.Add(label, format(vals["sch"][key]), format(vals["narrow"][key]),
			format(vals["wide"][key]), format(vals["opt"][key]))
	}
	v1m := map[string]map[string]float64(v1)
	add("Gm,M1 (mA/V)", v1m, "Gm", func(v float64) string { return fmt.Sprintf("%.3g", v*1e3) })
	add("Rout,M1 (kOhm)", v1m, "ro", func(v float64) string { return fmt.Sprintf("%.3g", v*1e-3) })
	add("Cout,M1 (fF)", v1m, "Cout", func(v float64) string { return fmt.Sprintf("%.3g", v*1e15) })
	add("I,M2 (uA)", v2, "current", func(v float64) string { return fmt.Sprintf("%.3g", v*1e6) })
	return tb, nil
}

// Table2 renders the primitive library catalog: metrics, weights, and
// tuning terminals per entry (from the live registry, not static
// text).
func Table2(ctx context.Context) (*report.Table, error) {
	tb := report.New("Table II: primitive metrics, weights, tuning terminals",
		"Primitive", "Objectives (alpha)", "Tuning terminals")
	for _, kind := range primlib.Kinds() {
		e, err := primlib.Lookup(ctx, kind)
		if err != nil {
			return nil, err
		}
		obj := ""
		for i, m := range e.Metrics {
			if i > 0 {
				obj += ", "
			}
			obj += fmt.Sprintf("%s (%.1f)", m.Name, m.Weight)
		}
		terms := ""
		for i, tt := range e.Tuning {
			if i > 0 {
				terms += ", "
			}
			terms += tt.Name
			if tt.CorrelatedWith != "" {
				terms += "*"
			}
		}
		tb.Add(kind, obj, terms)
	}
	tb.Note("* correlated terminals are enumerated jointly")
	return tb, nil
}

// Table3 reproduces the DP layout-option study: cost components for
// every (nfin, nf, m) x pattern configuration, binned by aspect
// ratio, with the per-bin winners marked.
func Table3(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	res, err := optimize.OptimizeCtx(ctx, t, t.Fingerprint(), primlib.DiffPair, dpSizing(), dpBias(), optimize.Params{
		Bins: 3,
		Cons: tableIIIConstraints(),
	})
	if err != nil {
		return nil, err
	}
	tb := report.New("Table III: cost components for DP layout options",
		"Configuration", "Pattern", "dGm", "dGm/Ctotal", "dOffset", "Cost", "Bin", "Pick")
	winners := map[int]string{}
	for _, s := range res.Selected {
		winners[s.Bin] = s.Layout.Config.ID()
	}
	for _, o := range res.AllOptions {
		var dGm, dGmCt, dOff string
		for _, v := range o.Values {
			pct := fmt.Sprintf("%.1f%%", 100*v.Delta)
			switch v.Metric.Name {
			case "Gm":
				dGm = pct
			case "Gm/Ctotal":
				dGmCt = pct
			case "offset":
				dOff = pct
			}
		}
		pick := ""
		if winners[o.Bin] == o.Layout.Config.ID() {
			pick = "<== bin best"
		}
		cfg := o.Layout.Config
		tb.Add(fmt.Sprintf("nfin=%d nf=%d m=%d", cfg.NFin, cfg.NF, cfg.M),
			cfg.Pattern.String(), dGm, dGmCt, dOff,
			fmt.Sprintf("%.1f", o.Cost), fmt.Sprintf("%d", o.Bin+1), pick)
	}
	sigma, err := offsetSigma(ctx, t)
	if err != nil {
		return nil, err
	}
	tb.Note("offset spec = 10%% of random offset sigma = %s V",
		units.Format(0.1*sigma, 3))
	return tb, nil
}

func offsetSigma(ctx context.Context, t *pdk.Tech) (float64, error) {
	m, err := primlib.DiffPair.CostMetrics(t, dpSizing(), &primlib.Eval{Values: map[string]float64{
		"Gm": 1, "Gm/Ctotal": 1,
	}})
	if err != nil {
		return 0, err
	}
	for _, mm := range m {
		if mm.Name == "offset" {
			return mm.Spec * 10, nil
		}
	}
	return 0, nil
}

// Table4 reproduces the port-optimization cost sweeps: DP and passive
// CM cost versus the number of parallel routes at their ports.
func Table4(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	const maxW = 7
	m3 := pdk.Layer(2)

	mk := func(e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias,
		cfg cellgen.Config, routes map[string]extract.Route, nets map[string]string,
		name string) (*portopt.PrimInstance, error) {
		lay, err := cellgen.Generate(t, e.Spec(sz), cfg)
		if err != nil {
			return nil, err
		}
		ex, err := extract.Primitive(ctx, t, lay)
		if err != nil {
			return nil, err
		}
		sch, err := e.EvaluateCtx(ctx, t, sz, bias, nil, nil)
		if err != nil {
			return nil, err
		}
		metrics, err := e.CostMetrics(t, sz, sch)
		if err != nil {
			return nil, err
		}
		return &portopt.PrimInstance{
			Name: name, Entry: e, Sizing: sz, Bias: bias, Ex: ex,
			Metrics: metrics, Routes: routes, NetOf: nets,
			SymGroups: e.SymPorts,
		}, nil
	}
	// The paper's setup: 2 µm global routes on metal 3.
	dp, err := mk(primlib.DiffPair, dpSizing(), dpBias(),
		cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA},
		map[string]extract.Route{
			"d_a": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
		},
		map[string]string{"d_a": "net4", "d_b": "net5"}, "dp")
	if err != nil {
		return nil, err
	}
	cmSz := primlib.Sizing{TotalFins: 240, L: 14, NominalI: 50e-6}
	cmBias := primlib.Bias{Vdd: 0.8, VD: 0.15, CLoad: 2e-15}
	cm, err := mk(primlib.CurrentMirror, cmSz, cmBias,
		cellgen.Config{NFin: 12, NF: 10, M: 2, Dummies: 2, Pattern: cellgen.PatABAB},
		map[string]extract.Route{
			"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
		},
		map[string]string{"d_b": "net3"}, "cm")
	if err != nil {
		return nil, err
	}

	pdkFP := t.Fingerprint()
	dpCons, _, err := portopt.GenerateConstraints(ctx, t, pdkFP, dp, portopt.Params{MaxWires: maxW})
	if err != nil {
		return nil, err
	}
	cmCons, _, err := portopt.GenerateConstraints(ctx, t, pdkFP, cm, portopt.Params{MaxWires: maxW})
	if err != nil {
		return nil, err
	}

	tb := report.New("Table IV: DP and CM cost during primitive port optimization",
		"# Wires", "DP cost (net4)", "CM cost (net3)")
	dpCurve := dpCons[0].Curve
	cmCurve := cmCons[0].Curve
	for n := 0; n < maxW; n++ {
		tb.Add(fmt.Sprintf("%d", n+1),
			fmt.Sprintf("%.2f", dpCurve[n]),
			fmt.Sprintf("%.2f", cmCurve[n]))
	}
	dpMax := "unbounded"
	if dpCons[0].WMax != portopt.Unbounded {
		dpMax = fmt.Sprintf("%d", dpCons[0].WMax)
	}
	cmMax := "unbounded"
	if cmCons[0].WMax != portopt.Unbounded {
		cmMax = fmt.Sprintf("%d", cmCons[0].WMax)
	}
	tb.Note("DP interval [wmin=%d, wmax=%s]; CM interval [wmin=%d, wmax=%s]",
		dpCons[0].WMin, dpMax, cmCons[0].WMin, cmMax)
	return tb, nil
}

// Table5 reproduces the simulation-count accounting for three
// primitives through selection, tuning, and port-constraint
// generation, with the wall time of the (parallelized) run.
func Table5(ctx context.Context, t *pdk.Tech) (*report.Table, error) {
	type row struct {
		name      string
		entry     *primlib.Entry
		sz        primlib.Sizing
		bias      primlib.Bias
		portWires map[string]extract.Route
		nets      map[string]string
	}
	m3 := pdk.Layer(2)
	rows := []row{
		{
			name: "Differential pair", entry: primlib.DiffPair,
			sz: dpSizing(), bias: dpBias(),
			portWires: map[string]extract.Route{
				"d_a": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
				"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			},
			nets: map[string]string{"d_a": "na", "d_b": "nb"},
		},
		{
			name: "Current mirror", entry: primlib.CurrentMirror,
			sz:   primlib.Sizing{TotalFins: 240, L: 14, NominalI: 50e-6},
			bias: primlib.Bias{Vdd: 0.8, VD: 0.15, CLoad: 2e-15},
			portWires: map[string]extract.Route{
				"d_b": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			},
			nets: map[string]string{"d_b": "n"},
		},
		{
			name: "Current-starved inverter", entry: primlib.CSInverter,
			sz:   primlib.Sizing{TotalFins: 16, L: 14},
			bias: primlib.Bias{Vdd: 0.8, VCtrl: 0.5, CLoad: 2e-15},
			portWires: map[string]extract.Route{
				"d_a": {Layer: m3, Length: 2000, NWires: 1, PinLayer: 0},
			},
			nets: map[string]string{"d_a": "n"},
		},
	}
	tb := report.New("Table V: simulations for a set of primitives",
		"", rows[0].name, rows[1].name, rows[2].name)
	var sel, tun, prt [3]int
	var wall [3]time.Duration
	pdkFP := t.Fingerprint()
	for i, r := range rows {
		start := time.Now()
		res, err := optimize.OptimizeCtx(ctx, t, pdkFP, r.entry, r.sz, r.bias, optimize.Params{Bins: 3})
		if err != nil {
			return nil, fmt.Errorf("table5 %s: %w", r.name, err)
		}
		sel[i], tun[i] = res.SelectionSims, res.TuningSims
		pi := &portopt.PrimInstance{
			Name: r.name, Entry: r.entry, Sizing: r.sz, Bias: r.bias,
			Ex: res.Best().Ex, Metrics: res.Metrics,
			Routes: r.portWires, NetOf: r.nets,
		}
		_, sims, err := portopt.GenerateConstraints(ctx, t, pdkFP, pi, portopt.Params{MaxWires: 8})
		if err != nil {
			return nil, err
		}
		prt[i] = sims
		wall[i] = time.Since(start)
	}
	tb.Add("1. Primitive selection", sel[0], sel[1], sel[2])
	tb.Add("2. Primitive tuning", tun[0], tun[1], tun[2])
	tb.Add("3. Net routing constraints", prt[0], prt[1], prt[2])
	tb.Add("Total simulations", sel[0]+tun[0]+prt[0], sel[1]+tun[1]+prt[1], sel[2]+tun[2]+prt[2])
	tb.Add("Wall time",
		wall[0].Round(time.Millisecond).String(),
		wall[1].Round(time.Millisecond).String(),
		wall[2].Round(time.Millisecond).String())
	tb.Note("simulations within each step run in parallel (paper: 3x10s = 30s serial-equivalent)")
	return tb, nil
}

// Table6 reproduces the OTA and StrongARM comparison across the four
// methodologies.
func Table6(ctx context.Context, t *pdk.Tech) (*report.Table, []*flow.Result, error) {
	tb := report.New("Table VI: high-frequency OTA & StrongARM comparator",
		"Circuit", "Metric", "Schematic", "Manual", "Conventional", "This work")
	var all []*flow.Result

	add := func(bm *circuits.Benchmark, label string, metricScale map[string]float64,
		metricUnit map[string]string) error {
		p := flow.Params{Seed: 1}
		results := map[flow.Mode]*flow.Result{}
		for _, mode := range []flow.Mode{flow.Schematic, flow.Manual, flow.Conventional, flow.Optimized} {
			r, err := flow.RunContext(ctx, t, bm, mode, p)
			if err != nil {
				return fmt.Errorf("%s %v: %w", bm.Name, mode, err)
			}
			results[mode] = r
			all = append(all, r)
		}
		for _, m := range bm.MetricOrder {
			scale := metricScale[m]
			if scale == 0 {
				scale = 1
			}
			tb.Add(label, fmt.Sprintf("%s (%s)", m, metricUnit[m]),
				fmt.Sprintf("%.4g", results[flow.Schematic].Metrics[m]*scale),
				fmt.Sprintf("%.4g", results[flow.Manual].Metrics[m]*scale),
				fmt.Sprintf("%.4g", results[flow.Conventional].Metrics[m]*scale),
				fmt.Sprintf("%.4g", results[flow.Optimized].Metrics[m]*scale))
			label = ""
		}
		return nil
	}

	ota, err := circuits.OTA5T(t)
	if err != nil {
		return nil, nil, err
	}
	if err := add(ota, "5T OTA",
		map[string]float64{"current": 1e6, "ugf": 1e-9, "f3db": 1e-6},
		map[string]string{"current": "uA", "gain_db": "dB", "ugf": "GHz", "f3db": "MHz", "pm": "deg"}); err != nil {
		return nil, nil, err
	}
	sa, err := circuits.StrongARM(t)
	if err != nil {
		return nil, nil, err
	}
	if err := add(sa, "StrongARM",
		map[string]float64{"delay": 1e12, "power": 1e6},
		map[string]string{"delay": "ps", "power": "uW"}); err != nil {
		return nil, nil, err
	}
	return tb, all, nil
}

// Table7 reproduces the eight-stage RO-VCO comparison.
func Table7(ctx context.Context, t *pdk.Tech, stages int) (*report.Table, []*flow.Result, error) {
	bm, err := circuits.ROVCO(t, stages)
	if err != nil {
		return nil, nil, err
	}
	p := flow.Params{Seed: 1}
	var all []*flow.Result
	results := map[flow.Mode]*flow.Result{}
	for _, mode := range []flow.Mode{flow.Schematic, flow.Conventional, flow.Optimized} {
		r, err := flow.RunContext(ctx, t, bm, mode, p)
		if err != nil {
			return nil, nil, fmt.Errorf("rovco %v: %w", mode, err)
		}
		results[mode] = r
		all = append(all, r)
	}
	tb := report.New(fmt.Sprintf("Table VII: %d-stage differential RO-VCO", stages),
		"Metric", "Schematic", "Conventional", "This work")
	tb.Add("Max frequency (GHz)",
		fmt.Sprintf("%.3g", results[flow.Schematic].Metrics["fmax"]*1e-9),
		fmt.Sprintf("%.3g", results[flow.Conventional].Metrics["fmax"]*1e-9),
		fmt.Sprintf("%.3g", results[flow.Optimized].Metrics["fmax"]*1e-9))
	tb.Add("Min frequency (GHz)",
		fmt.Sprintf("%.3g", results[flow.Schematic].Metrics["fmin"]*1e-9),
		fmt.Sprintf("%.3g", results[flow.Conventional].Metrics["fmin"]*1e-9),
		fmt.Sprintf("%.3g", results[flow.Optimized].Metrics["fmin"]*1e-9))
	rng := func(r *flow.Result) string {
		return fmt.Sprintf("%.2f - %.2f", r.Metrics["vlo"], r.Metrics["vhi"])
	}
	tb.Add("Control range (V)",
		rng(results[flow.Schematic]), rng(results[flow.Conventional]), rng(results[flow.Optimized]))
	return tb, all, nil
}

// Table8 reports the optimized-flow runtime per circuit, from flow
// results produced by Table6/Table7 (pass their outputs in) or fresh
// runs when nil.
func Table8(ctx context.Context, t *pdk.Tech, prior []*flow.Result) (*report.Table, error) {
	byBench := map[string]time.Duration{}
	sims := map[string]int{}
	have := map[string]bool{}
	for _, r := range prior {
		if r.Mode == flow.Optimized {
			byBench[r.Benchmark] = r.Runtime
			sims[r.Benchmark] = r.Sims
			have[r.Benchmark] = true
		}
	}
	need := []struct {
		name  string
		build func() (*circuits.Benchmark, error)
	}{
		{"csamp", func() (*circuits.Benchmark, error) { return circuits.CommonSource(t) }},
		{"ota5t", func() (*circuits.Benchmark, error) { return circuits.OTA5T(t) }},
		{"strongarm", func() (*circuits.Benchmark, error) { return circuits.StrongARM(t) }},
		{"rovco", func() (*circuits.Benchmark, error) { return circuits.ROVCO(t, 8) }},
	}
	for _, n := range need {
		if have[n.name] {
			continue
		}
		bm, err := n.build()
		if err != nil {
			return nil, err
		}
		r, err := flow.RunContext(ctx, t, bm, flow.Optimized, flow.Params{Seed: 1})
		if err != nil {
			return nil, err
		}
		byBench[n.name] = r.Runtime
		sims[n.name] = r.Sims
	}
	tb := report.New("Table VIII: runtime of the optimized flow",
		"Circuit", "Runtime", "SPICE runs")
	for _, name := range []string{"csamp", "ota5t", "strongarm", "rovco"} {
		d, ok := byBench[name]
		if !ok {
			continue
		}
		tb.Add(name, d.Round(time.Millisecond).String(), sims[name])
	}
	return tb, nil
}

// ShapeChecks verifies the qualitative reproduction targets on a set
// of Table VI results and returns human-readable pass/fail lines (the
// EXPERIMENTS.md summary).
func ShapeChecks(results []*flow.Result) []string {
	byKey := map[string]*flow.Result{}
	for _, r := range results {
		byKey[r.Benchmark+"/"+r.Mode.String()] = r
	}
	var out []string
	check := func(label string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		out = append(out, fmt.Sprintf("[%s] %s", status, label))
	}
	if sch, conv, opt := byKey["ota5t/schematic"], byKey["ota5t/conventional"], byKey["ota5t/optimized"]; sch != nil && conv != nil && opt != nil {
		for _, m := range []string{"ugf", "f3db"} {
			dc := math.Abs(sch.Metrics[m] - conv.Metrics[m])
			do := math.Abs(sch.Metrics[m] - opt.Metrics[m])
			check(fmt.Sprintf("OTA %s: optimized closer to schematic than conventional", m), do <= dc)
		}
	}
	if sch, conv, opt := byKey["strongarm/schematic"], byKey["strongarm/conventional"], byKey["strongarm/optimized"]; sch != nil && conv != nil && opt != nil {
		check("StrongARM delay: schematic < optimized < conventional",
			sch.Metrics["delay"] < opt.Metrics["delay"] && opt.Metrics["delay"] <= conv.Metrics["delay"])
	}
	if sch, conv, opt := byKey["rovco/schematic"], byKey["rovco/conventional"], byKey["rovco/optimized"]; sch != nil && conv != nil && opt != nil {
		check("RO-VCO fmax: schematic > optimized > conventional",
			sch.Metrics["fmax"] > opt.Metrics["fmax"] && opt.Metrics["fmax"] >= conv.Metrics["fmax"])
	}
	return out
}

// costOf re-evaluates a cost for ablations.
func costOf(metrics []cost.Metric, ev *primlib.Eval) float64 {
	c, _, err := primlib.Cost(metrics, ev)
	if err != nil {
		return math.NaN()
	}
	return c
}
