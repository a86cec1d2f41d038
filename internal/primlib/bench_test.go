package primlib

import (
	"context"
	"testing"
)

// BenchmarkEvaluate times one primitive evaluation per op for each MOS
// family: EvaluateCtx on the family's first kind in the deck cases'
// layout view (its first layout, every port wire routed), which builds
// and solves all of the family's testbench decks. Layout generation
// and extraction run once, outside the timer.
func BenchmarkEvaluate(b *testing.B) {
	ctx := context.Background()
	seen := map[string]bool{"cap": true, "res": true}
	for _, c := range deckCases(b, tech) {
		if c.ex == nil || seen[c.entry.Family.Name] {
			continue
		}
		seen[c.entry.Family.Name] = true
		b.Run(c.entry.Family.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.entry.EvaluateCtx(ctx, tech, c.sz, c.bias, c.ex, c.routes); err != nil {
					b.Fatalf("%s: %v", c.name, err)
				}
			}
		})
	}
}
