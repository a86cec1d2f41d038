package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// BenchMeta describes the environment that produced a bench file —
// the context a perf number is meaningless without.
type BenchMeta struct {
	GoVersion string `json:"go_version,omitempty"`
	Host      string `json:"host,omitempty"`
	Commit    string `json:"commit,omitempty"`
	Timestamp string `json:"timestamp,omitempty"` // RFC3339, injected clock
}

// BenchRun is one (circuit, mode, cache, replicas) measurement of the
// flow: wall clock per stage plus the cache and duplicate-deck
// accounting that explains the timing. EvcacheHits/Misses and
// DuplicateDecks make anomalies like cache-on slower than cache-off
// on low-hit circuits legible from the bench file alone: a run whose
// misses dwarf its hits paid the cache's bookkeeping for nothing.
type BenchRun struct {
	Circuit string `json:"circuit"`
	Mode    string `json:"mode"`
	Cache   bool   `json:"cache"`
	// Replicas is the placer's annealing-replica count (0 for runs
	// predating the replica engine or without a placement stage);
	// PlaceBestCost is the winning replica's annealing cost, so a
	// replicas>1 entry can be compared against the single-chain one
	// at equal-or-better quality, not just on wall time.
	Replicas      int     `json:"place_replicas,omitempty"`
	PlaceBestCost float64 `json:"place_best_cost,omitempty"`
	TotalMS       float64 `json:"total_ms"`
	Sims          float64 `json:"sims,omitempty"`
	EvcacheHits   int64   `json:"evcache_hits,omitempty"`
	EvcacheMisses int64   `json:"evcache_misses,omitempty"`
	// DiskHits/DiskMisses are the persistent tier's per-run deltas: a
	// warm run shows all disk hits and zero decks, which is the whole
	// point of sharing a -cache-dir across runs.
	DiskHits       int64 `json:"disk_hits,omitempty"`
	DiskMisses     int64 `json:"disk_misses,omitempty"`
	DuplicateDecks int64 `json:"duplicate_decks,omitempty"`
	// FactorReused counts Newton solves served by recycling the pivot
	// order of an earlier LU factorization; NewtonBypassed counts
	// Newton iterations that skipped the Jacobian restamp/refactor
	// entirely. Both are per-run deltas of the spice counters on the
	// run's trace. A drop means the solver fast path stopped engaging —
	// a perf regression even when wall clock hides it in noise — so
	// the diff gate watches them alongside the stage timings.
	FactorReused   int64              `json:"factor_reused,omitempty"`
	NewtonBypassed int64              `json:"newton_bypassed,omitempty"`
	Stages         map[string]float64 `json:"stages_ms"`
}

// Key identifies the run configuration a bench entry measures; a new
// measurement of the same configuration replaces the old one.
func (b BenchRun) Key() string {
	return fmt.Sprintf("%s|%s|%t|r%d", b.Circuit, b.Mode, b.Cache, b.Replicas)
}

// BenchFile is the BENCH_flow.json schema.
type BenchFile struct {
	Meta BenchMeta  `json:"meta,omitempty"`
	Runs []BenchRun `json:"runs"`
}

// SortRuns orders entries canonically (circuit, mode, cache off
// before on, replicas ascending).
func (f *BenchFile) SortRuns() {
	sort.Slice(f.Runs, func(i, j int) bool {
		a, b := f.Runs[i], f.Runs[j]
		if a.Circuit != b.Circuit {
			return a.Circuit < b.Circuit
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.Cache != b.Cache {
			return !a.Cache
		}
		return a.Replicas < b.Replicas
	})
}

// ParseBench decodes a bench file (files predating the meta block
// parse with an empty Meta).
func ParseBench(data []byte) (*BenchFile, error) {
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("analyze: bench file: %w", err)
	}
	return &f, nil
}

// ReadBenchFile loads and decodes path.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := ParseBench(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// BenchOptions tunes the bench regression gate.
type BenchOptions struct {
	// MaxRegress is the tolerated fractional slowdown per stage and
	// per run total (0.2 = 20%).
	MaxRegress float64
	// MinMS ignores stages below this baseline floor — sub-millisecond
	// stages are scheduler noise on shared CI runners.
	MinMS float64
	// CounterRegress is the tolerated fractional DROP of the solver
	// fast-path counters (factor_reused, newton_bypassed) per run
	// (0.25 = a 25% drop fails). Unlike the timing gate, counters
	// regress downward: fewer reuses or bypasses means the solver
	// fell back to full restamps/refactors. Zero disables the gate.
	CounterRegress float64
}

// BenchRunDelta pairs a baseline and current measurement of the same
// configuration.
type BenchRunDelta struct {
	Key string   `json:"key"`
	A   BenchRun `json:"a"`
	B   BenchRun `json:"b"`
}

// BenchDiff joins two bench files on the run key.
type BenchDiff struct {
	AMeta   BenchMeta       `json:"a_meta,omitempty"`
	BMeta   BenchMeta       `json:"b_meta,omitempty"`
	Matched []BenchRunDelta `json:"matched"`
	OnlyA   []string        `json:"only_a,omitempty"` // keys in baseline only
	OnlyB   []string        `json:"only_b,omitempty"` // keys in current only
}

// DiffBench matches runs by configuration key.
func DiffBench(a, b *BenchFile) *BenchDiff {
	d := &BenchDiff{AMeta: a.Meta, BMeta: b.Meta}
	byKey := map[string]BenchRun{}
	for _, r := range a.Runs {
		byKey[r.Key()] = r
	}
	seen := map[string]bool{}
	for _, r := range b.Runs {
		k := r.Key()
		if base, ok := byKey[k]; ok {
			d.Matched = append(d.Matched, BenchRunDelta{Key: k, A: base, B: r})
			seen[k] = true
		} else {
			d.OnlyB = append(d.OnlyB, k)
		}
	}
	for _, r := range a.Runs {
		if !seen[r.Key()] {
			d.OnlyA = append(d.OnlyA, r.Key())
		}
	}
	sort.Slice(d.Matched, func(i, j int) bool { return d.Matched[i].Key < d.Matched[j].Key })
	sort.Strings(d.OnlyA)
	sort.Strings(d.OnlyB)
	return d
}

// BenchRegression is one stage (or run total, Stage == "total_ms")
// that exceeded the slowdown threshold, or a solver fast-path counter
// (Stage == "factor_reused" / "newton_bypassed") that dropped past the
// counter threshold; for counters the *MS fields carry counts, not
// milliseconds.
type BenchRegression struct {
	RunKey     string  `json:"run_key"`
	Stage      string  `json:"stage"`
	BaselineMS float64 `json:"baseline_ms"`
	CurrentMS  float64 `json:"current_ms"`
	Ratio      float64 `json:"ratio"`
}

// Regressions applies the gate to every matched run: the run total
// and each stage present in both measurements, skipping stages whose
// baseline sits below the MinMS noise floor.
func (d *BenchDiff) Regressions(opt BenchOptions) []BenchRegression {
	var out []BenchRegression
	check := func(key, stage string, base, cur float64) {
		if base < opt.MinMS {
			return
		}
		if cur > base*(1+opt.MaxRegress) {
			out = append(out, BenchRegression{
				RunKey: key, Stage: stage, BaselineMS: base, CurrentMS: cur, Ratio: cur / base,
			})
		}
	}
	for _, m := range d.Matched {
		check(m.Key, "total_ms", m.A.TotalMS, m.B.TotalMS)
		stages := make([]string, 0, len(m.A.Stages))
		for s := range m.A.Stages {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			cur, ok := m.B.Stages[s]
			if !ok {
				continue
			}
			check(m.Key, s, m.A.Stages[s], cur)
		}
		if opt.CounterRegress > 0 {
			checkDrop := func(stage string, base, cur int64) {
				// A baseline of zero means the configuration never
				// engaged the fast path (e.g. schematic mode); nothing
				// to protect. Otherwise current must hold at least
				// (1 - CounterRegress) of the baseline count.
				if base <= 0 {
					return
				}
				if float64(cur) < float64(base)*(1-opt.CounterRegress) {
					out = append(out, BenchRegression{
						RunKey: m.Key, Stage: stage,
						BaselineMS: float64(base), CurrentMS: float64(cur),
						Ratio: float64(cur) / float64(base),
					})
				}
			}
			checkDrop("factor_reused", m.A.FactorReused, m.B.FactorReused)
			checkDrop("newton_bypassed", m.A.NewtonBypassed, m.B.NewtonBypassed)
		}
	}
	return out
}

// Render writes the per-run comparison table and the verdict inputs.
func (d *BenchDiff) Render(w io.Writer, opt BenchOptions) error {
	for _, m := range d.Matched {
		if _, err := fmt.Fprintf(w, "%s: total %.3f -> %.3f ms (%+.1f%%)\n",
			m.Key, m.A.TotalMS, m.B.TotalMS, pctChange(m.A.TotalMS, m.B.TotalMS)); err != nil {
			return err
		}
		stages := make([]string, 0, len(m.A.Stages))
		for s := range m.A.Stages {
			if _, ok := m.B.Stages[s]; ok {
				stages = append(stages, s)
			}
		}
		sort.Strings(stages)
		for _, s := range stages {
			base, cur := m.A.Stages[s], m.B.Stages[s]
			mark := ""
			if base >= opt.MinMS && cur > base*(1+opt.MaxRegress) {
				mark = "  << REGRESSION"
			}
			if _, err := fmt.Fprintf(w, "  %-22s %10.3f %10.3f ms (%+.1f%%)%s\n",
				s, base, cur, pctChange(base, cur), mark); err != nil {
				return err
			}
		}
		if m.A.FactorReused+m.B.FactorReused > 0 || m.A.NewtonBypassed+m.B.NewtonBypassed > 0 {
			mark := ""
			if opt.CounterRegress > 0 &&
				((m.A.FactorReused > 0 && float64(m.B.FactorReused) < float64(m.A.FactorReused)*(1-opt.CounterRegress)) ||
					(m.A.NewtonBypassed > 0 && float64(m.B.NewtonBypassed) < float64(m.A.NewtonBypassed)*(1-opt.CounterRegress))) {
				mark = "  << REGRESSION"
			}
			if _, err := fmt.Fprintf(w, "  %-22s factor_reused %d/%d newton_bypassed %d/%d%s\n",
				"solver (a/b)", m.A.FactorReused, m.B.FactorReused,
				m.A.NewtonBypassed, m.B.NewtonBypassed, mark); err != nil {
				return err
			}
		}
		if m.A.EvcacheHits+m.A.EvcacheMisses+m.B.EvcacheHits+m.B.EvcacheMisses > 0 ||
			m.A.DuplicateDecks+m.B.DuplicateDecks > 0 {
			if _, err := fmt.Fprintf(w, "  %-22s hits %d/%d misses %d/%d dup_decks %d/%d\n",
				"evcache (a/b)", m.A.EvcacheHits, m.B.EvcacheHits,
				m.A.EvcacheMisses, m.B.EvcacheMisses,
				m.A.DuplicateDecks, m.B.DuplicateDecks); err != nil {
				return err
			}
		}
	}
	for _, k := range d.OnlyA {
		if _, err := fmt.Fprintf(w, "%s: only in baseline\n", k); err != nil {
			return err
		}
	}
	for _, k := range d.OnlyB {
		if _, err := fmt.Fprintf(w, "%s: only in current (no baseline to gate against)\n", k); err != nil {
			return err
		}
	}
	return nil
}

func pctChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b/a - 1) * 100
}
