package flow

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/obs"
)

// selectionSummary reduces the per-primitive Algorithm 1 results to a
// deterministic string: selected configurations, tuned wire counts,
// costs, and sim accounting.
func selectionSummary(r *Result) string {
	var b strings.Builder
	insts := make([]string, 0, len(r.PrimResults))
	for n := range r.PrimResults {
		insts = append(insts, n)
	}
	sort.Strings(insts)
	for _, n := range insts {
		pr := r.PrimResults[n]
		fmt.Fprintf(&b, "%s sims=%d+%d\n", n, pr.SelectionSims, pr.TuningSims)
		for _, s := range pr.Selected {
			fmt.Fprintf(&b, "  %s bin=%d cost=%.17g", s.Layout.Config.ID(), s.Bin, s.Cost)
			wires := make([]string, 0, len(s.Layout.Wires))
			for w := range s.Layout.Wires {
				wires = append(wires, w)
			}
			sort.Strings(wires)
			for _, w := range wires {
				fmt.Fprintf(&b, " %s=%d", w, s.Layout.Wires[w].NWires)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestCacheDeterminism is the cache's contract at flow level: for the
// CS-amp and the 5T-OTA, a flow's result does not depend on what the
// cache already holds. The optimized flow runs once on a fresh cache
// and again on the same cache, where every evaluation is served from
// an entry the first run stored; the two produce byte-identical
// results — metrics, placement, routing, selected options, sims and
// verification status. A stored entry that its computing run went on
// writing to, or a result that depends on which caller computed an
// entry, shows up as a difference.
func TestCacheDeterminism(t *testing.T) {
	type build struct {
		name string
		f    func() (*circuits.Benchmark, error)
	}
	builds := []build{
		{"csamp", func() (*circuits.Benchmark, error) { return circuits.CommonSource(tech) }},
		{"ota5t", func() (*circuits.Benchmark, error) { return circuits.OTA5T(tech) }},
	}
	for _, bc := range builds {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			if testing.Short() && bc.name != "csamp" {
				t.Skip("short mode: csamp only")
			}
			bm, err := bc.f()
			if err != nil {
				t.Fatal(err)
			}
			p := fastParams()
			p.Verify.Mode = VerifyWarn
			p.Optimize.Cache = evcache.New()
			cold, err := RunContext(context.Background(), tech, bm, Optimized, p)
			if err != nil {
				t.Fatalf("fresh-cache run: %v", err)
			}
			first := p.Optimize.Cache.Stats()
			warm, err := RunContext(context.Background(), tech, bm, Optimized, p)
			if err != nil {
				t.Fatalf("warm-cache run: %v", err)
			}
			second := p.Optimize.Cache.Stats()
			if second.Misses != first.Misses {
				t.Errorf("warm-cache run computed %d entries, want every evaluation served", second.Misses-first.Misses)
			}
			if second.Hits == first.Hits {
				t.Error("warm-cache run never hit; the determinism check proved nothing")
			}
			if a, b := fingerprint(cold), fingerprint(warm); a != b {
				t.Errorf("cache contents changed the flow result:\n--- fresh ---\n%s--- warm ---\n%s", a, b)
			}
			if a, b := selectionSummary(cold), selectionSummary(warm); a != b {
				t.Errorf("cache contents changed the selection:\n--- fresh ---\n%s--- warm ---\n%s", a, b)
			}
			if cold.Sims != warm.Sims {
				t.Errorf("sims accounting drifted: %d vs %d", cold.Sims, warm.Sims)
			}
			if cold.Verify == nil || warm.Verify == nil {
				t.Fatal("verification did not run")
			}
			if a, b := cold.Verify.Summary(), warm.Verify.Summary(); a != b {
				t.Errorf("verify status drifted: %q vs %q", a, b)
			}
		})
	}
}

// TestCacheHitsMatchRepeatEvalsInFlow asserts the accounting on a
// traced flow run: with the cache shared across every primitive
// instance, each repeated evaluation request anywhere in the circuit
// is a cache hit that does no work — each miss evaluates once, no hit
// evaluates, and no SPICE deck is solved twice. The 2-stage RO-VCO's
// stages differ only in the schematic-OP voltages their csinv
// testbenches never read, so they must share one set of evaluations.
func TestCacheHitsMatchRepeatEvalsInFlow(t *testing.T) {
	builds := []struct {
		name string
		f    func() (*circuits.Benchmark, error)
	}{
		{"csamp", func() (*circuits.Benchmark, error) { return circuits.CommonSource(tech) }},
		{"rovco2", func() (*circuits.Benchmark, error) { return circuits.ROVCO(tech, 2) }},
	}
	for _, bc := range builds {
		t.Run(bc.name, func(t *testing.T) {
			bm, err := bc.f()
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New()
			p := fastParams()
			p.Trace = tr
			p.Optimize.Cache = evcache.New()
			if _, err := RunContext(context.Background(), tech, bm, Optimized, p); err != nil {
				t.Fatal(err)
			}
			hits := tr.Counter("evcache.hits").Value()
			misses := tr.Counter("evcache.misses").Value()
			if hits == 0 {
				t.Fatal("flow produced no repeated evaluations; nothing proven")
			}
			evals := tr.Counter("primlib.layout_evals").Value() + tr.Counter("primlib.schematic_evals").Value()
			if evals != misses {
				t.Errorf("%d primitive evaluations ran, want one per miss (%d)", evals, misses)
			}
			if dups := tr.Counter("spice.duplicate_decks").Value(); dups != 0 {
				t.Errorf("spice.duplicate_decks = %d of %d decks, want 0",
					dups, tr.Counter("spice.decks").Value())
			}
			st := p.Optimize.Cache.Stats()
			if st.Hits != hits || st.Misses != misses {
				t.Errorf("cache stats %+v disagree with trace (hits=%d misses=%d)", st, hits, misses)
			}
		})
	}
}

// TestMostCompactEmpty is the regression test for the
// conventionalChoices panic: zero configurations must surface as a
// descriptive error, not an index-out-of-range.
func TestMostCompactEmpty(t *testing.T) {
	if _, err := mostCompact(nil); err == nil {
		t.Error("nil layout set accepted")
	}
	if _, err := mostCompact(nil); err != nil && !strings.Contains(err.Error(), "no legal layout") {
		t.Errorf("undescriptive error: %v", err)
	}
}
