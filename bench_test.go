// Package primopt's benchmark harness regenerates every table and
// figure of the paper's evaluation (DATE 2021, "Analog Layout
// Generation using Optimized Primitives"). Each benchmark prints the
// reproduced artifact through -v logging; EXPERIMENTS.md records the
// paper-vs-measured comparison. Run everything with
//
//	go test -bench=. -benchmem
//
// The heavyweight circuit benchmarks (Tables VI-VIII) each run the
// full flow — schematic simulation, per-primitive Algorithm 1,
// placement, global routing, Algorithm 2, post-layout simulation.
package primopt

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/mc"
	"primopt/internal/paper"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
	"primopt/internal/report"
)

var tech = pdk.Default()

// The harness calls each benchmark several times while calibrating
// b.N; log every artifact exactly once across those calls so the
// tables in the -bench output never hit go test's per-benchmark log
// cap.
var (
	logMu  sync.Mutex
	logged = map[string]bool{}
)

func logOnce(b *testing.B, key, text string) {
	b.Helper()
	logMu.Lock()
	defer logMu.Unlock()
	if logged[key] {
		return
	}
	logged[key] = true
	b.Log("\n" + text)
}

// logTable prints a reproduced table once per benchmark.
func logTable(b *testing.B, tb *report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	logOnce(b, b.Name(), tb.String())
}

func BenchmarkFig2CommonSourceTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.Fig2(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkTable1PrimitiveMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.Table1(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkTable2LibraryEntries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.Table2(context.Background())
		logTable(b, tb, err)
	}
}

func BenchmarkTable3DPLayoutOptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.Table3(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkTable4PortOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.Table4(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkTable5SimulationCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.Table5(context.Background(), tech)
		logTable(b, tb, err)
	}
}

// table6Results caches the Table VI flow runs so Table VIII can reuse
// their runtimes within one bench invocation.
var (
	table6Once    sync.Once
	table6Cached  []*flow.Result
	table6Table   *report.Table
	table6CachedE error
)

func table6(b *testing.B) (*report.Table, []*flow.Result) {
	table6Once.Do(func() {
		table6Table, table6Cached, table6CachedE = paper.Table6(context.Background(), tech)
	})
	if table6CachedE != nil {
		b.Fatal(table6CachedE)
	}
	return table6Table, table6Cached
}

func BenchmarkTable6OTAStrongARM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, results := table6(b)
		checks := ""
		for _, line := range paper.ShapeChecks(results) {
			checks += line + "\n"
		}
		logOnce(b, b.Name(), tb.String()+checks)
	}
}

func BenchmarkTable7ROVCO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, results, err := paper.Table7(context.Background(), tech, 8)
		if err != nil {
			b.Fatal(err)
		}
		checks := ""
		for _, line := range paper.ShapeChecks(results) {
			checks += line + "\n"
		}
		logOnce(b, b.Name(), tb.String()+checks)
	}
}

func BenchmarkTable8Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results := table6(b)
		tb, err := paper.Table8(context.Background(), tech, results)
		logTable(b, tb, err)
	}
}

func BenchmarkAblationBinning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.AblationBinning(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkAblationLDE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.AblationLDE(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkAblationCurvature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.AblationCurvature(context.Background(), tech)
		logTable(b, tb, err)
	}
}

func BenchmarkAblationReconcile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := paper.AblationReconcile(context.Background(), tech)
		logTable(b, tb, err)
	}
}

// BenchmarkExtensionTelescopic runs the extension circuit — a
// telescopic cascode OTA using the cascoded-pair primitive — through
// schematic, conventional, and optimized flows (the paper's "can
// readily be extended" claim, exercised end to end).
func BenchmarkExtensionTelescopic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bm, err := circuits.Telescopic(tech)
		if err != nil {
			b.Fatal(err)
		}
		tb := report.New("Extension: telescopic cascode OTA",
			"Metric", "Schematic", "Conventional", "This work")
		results := map[flow.Mode]*flow.Result{}
		for _, mode := range []flow.Mode{flow.Schematic, flow.Conventional, flow.Optimized} {
			r, err := flow.RunContext(context.Background(), tech, bm, mode, flow.Params{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			results[mode] = r
		}
		for _, m := range bm.MetricOrder {
			tb.Add(fmt.Sprintf("%s (%s)", m, bm.MetricUnit[m]),
				fmt.Sprintf("%.5g", results[flow.Schematic].Metrics[m]),
				fmt.Sprintf("%.5g", results[flow.Conventional].Metrics[m]),
				fmt.Sprintf("%.5g", results[flow.Optimized].Metrics[m]))
		}
		logOnce(b, b.Name(), tb.String())
	}
}

// BenchmarkMonteCarloOffset samples the DP offset distribution per
// placement pattern (the process-variations bullet of the paper's
// selection step).
func BenchmarkMonteCarloOffset(b *testing.B) {
	sz := primlib.Sizing{TotalFins: 960, L: 14}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
	cfgs := []cellgen.Config{
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABAB},
		{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB},
	}
	for i := 0; i < b.N; i++ {
		stats, err := mc.CompareOffsets(context.Background(), tech, primlib.DiffPair, sz, bias, cfgs,
			mc.Params{Samples: 2000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		tb := report.New("Monte Carlo: DP offset by pattern (2000 samples)",
			"Config", "Systematic (uV)", "Sigma (uV)", "P99 |offset| (uV)")
		for _, st := range stats {
			tb.Add(st.Config.ID(),
				fmt.Sprintf("%+.1f", st.Systematic*1e6),
				fmt.Sprintf("%.1f", st.Sigma*1e6),
				fmt.Sprintf("%.1f", st.P99*1e6))
		}
		logOnce(b, b.Name(), tb.String())
	}
}
