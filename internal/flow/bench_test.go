package flow

import (
	"context"
	"fmt"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/place"
)

// BenchmarkEvalVCOPoint times one post-layout RO-VCO evaluation point
// at the size the flow really solves: circuits.EvalVCOAtCtx on the
// 8-stage optimized netlist of seed 1, at a slow control voltage (0.40
// V, the sweep's costliest point) and a fast one (0.80 V). The flow
// that produces the netlist runs once, outside the timer.
func BenchmarkEvalVCOPoint(b *testing.B) {
	bm, err := circuits.ROVCO(tech, 8)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{Seed: 1}
	p.Optimize.Cache = evcache.New()
	res, err := RunContext(context.Background(), tech, bm, Optimized, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []float64{0.40, 0.80} {
		b.Run(fmt.Sprintf("vctrl=%.2f", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hz, ok, err := circuits.EvalVCOAtCtx(context.Background(), tech, res.Netlist, v)
				if err != nil || !ok {
					b.Fatalf("EvalVCOAtCtx(%.2f): ok=%v err=%v", v, ok, err)
				}
				pointHz = hz
			}
		})
	}
}

// pointHz keeps the benchmarked call's result live.
var pointHz float64

// BenchmarkPlace times the annealer on the inputs the flow places: one
// place.PlaceCtx per op on each circuit's optimized blocks, nets and
// symmetry pairs of seed 1 (the RO-VCO at 8 stages), with the flow's
// default replica count and worker bound. The layout that builds the
// inputs runs once per circuit, outside the timer.
func BenchmarkPlace(b *testing.B) {
	for _, name := range circuits.Names() {
		bm, err := circuits.Build(tech, name, 8)
		if err != nil {
			b.Fatal(err)
		}
		res, choices := layoutOnly(b, bm, evcache.New(), 1, 0)
		blocks, nets, sym := placeInputs(bm, choices, res)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, err := place.PlaceCtx(context.Background(), blocks, nets, sym, place.Params{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				placed = pl
			}
		})
	}
}

// placed keeps the benchmarked placement live.
var placed *place.Placement

// BenchmarkNetlistKey times the post-layout evaluation's cache key as
// evaluate computes it once per run, PDK fingerprint included, on the
// largest netlist a warm daemon request evaluates: the StrongARM's
// optimized netlist of seed 1. The flow that produces it runs once,
// outside the timer.
func BenchmarkNetlistKey(b *testing.B) {
	bm, err := circuits.StrongARM(tech)
	if err != nil {
		b.Fatal(err)
	}
	res, err := RunContext(context.Background(), tech, bm, Optimized, Params{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		netlistKey = evcache.NetlistKey(tech.Fingerprint(), bm.Name, res.Netlist)
	}
}

// netlistKey keeps the benchmarked key live.
var netlistKey string
