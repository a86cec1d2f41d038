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

// TestCacheDeterminism is the cache's core contract at flow level:
// for the CS-amp and the 5T-OTA, the optimized flow with the shared
// evaluation cache produces byte-identical results — metrics,
// placement, routing, selected options, and verification status — to
// the same flow without it.
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
			plainP := fastParams()
			plainP.Verify.Mode = VerifyWarn
			plain, err := RunContext(context.Background(), tech, bm, Optimized, plainP)
			if err != nil {
				t.Fatalf("uncached run: %v", err)
			}
			cachedP := fastParams()
			cachedP.Verify.Mode = VerifyWarn
			cachedP.Optimize.Cache = evcache.New()
			cached, err := RunContext(context.Background(), tech, bm, Optimized, cachedP)
			if err != nil {
				t.Fatalf("cached run: %v", err)
			}
			if st := cachedP.Optimize.Cache.Stats(); st.Hits == 0 {
				t.Error("cache never hit; the determinism check proved nothing")
			}
			if a, b := fingerprint(plain), fingerprint(cached); a != b {
				t.Errorf("cache changed the flow result:\n--- uncached ---\n%s--- cached ---\n%s", a, b)
			}
			if a, b := selectionSummary(plain), selectionSummary(cached); a != b {
				t.Errorf("cache changed the selection:\n--- uncached ---\n%s--- cached ---\n%s", a, b)
			}
			if plain.Sims != cached.Sims {
				t.Errorf("sims accounting drifted: %d vs %d", plain.Sims, cached.Sims)
			}
			if plain.Verify == nil || cached.Verify == nil {
				t.Fatal("verification did not run")
			}
			if a, b := plain.Verify.Summary(), cached.Verify.Summary(); a != b {
				t.Errorf("verify status drifted: %q vs %q", a, b)
			}
		})
	}
}

// TestCacheHitsMatchRepeatEvalsInFlow asserts the accounting identity
// on a traced flow run: with the cache shared across every primitive
// instance, each repeated evaluation request anywhere in the circuit
// is exactly one cache hit, and no SPICE deck is solved twice. The
// 2-stage RO-VCO's stages differ only in the schematic-OP voltages
// their csinv testbenches never read, so they must share one set of
// evaluations.
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
			repeats := tr.Counter("optimize.repeat_evals").Value()
			hits := tr.Counter("evcache.hits").Value()
			misses := tr.Counter("evcache.misses").Value()
			evals := tr.Counter("optimize.evals").Value()
			if repeats == 0 {
				t.Fatal("flow produced no repeated evaluations; nothing proven")
			}
			if hits != repeats {
				t.Errorf("evcache.hits = %d, optimize.repeat_evals = %d; want equal", hits, repeats)
			}
			if misses != evals-repeats {
				t.Errorf("evcache.misses = %d, want evals-repeats = %d", misses, evals-repeats)
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
