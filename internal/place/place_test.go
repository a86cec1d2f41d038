package place

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"primopt/internal/geom"
	"primopt/internal/obs"
)

func squareBlocks(names ...string) []Block {
	out := make([]Block, len(names))
	for i, n := range names {
		out[i] = Block{Name: n, Variants: []Variant{{W: 1000, H: 1000, Tag: "sq"}}}
	}
	return out
}

func TestPlaceNoOverlap(t *testing.T) {
	blocks := squareBlocks("a", "b", "c", "d", "e")
	pl, err := PlaceCtx(context.Background(), blocks, nil, nil, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range blocks {
		for _, b := range blocks[i+1:] {
			if pl.Pos[a.Name].Intersects(pl.Pos[b.Name]) {
				t.Errorf("%s and %s overlap: %v %v", a.Name, b.Name, pl.Pos[a.Name], pl.Pos[b.Name])
			}
		}
	}
}

func TestPlaceCompactsArea(t *testing.T) {
	// Five 1000x1000 blocks: optimal bbox area is 5e6 (1x5), best
	// square-ish packing 2x3 -> 6e6. The annealer must land well
	// under the worst diagonal arrangement (25e6).
	blocks := squareBlocks("a", "b", "c", "d", "e")
	pl, err := PlaceCtx(context.Background(), blocks, nil, nil, Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.BBox.Area(); got > 9e6 {
		t.Errorf("placement area %d too loose", got)
	}
}

func TestPlaceWirelengthPullsConnectedBlocksTogether(t *testing.T) {
	blocks := squareBlocks("a", "b", "c", "d", "e", "f")
	nets := []Net{{Name: "n1", Blocks: []string{"a", "f"}, Weight: 10}}
	pl, err := PlaceCtx(context.Background(), blocks, nets, nil, Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := pl.Pos["a"].Center().ManhattanDist(pl.Pos["f"].Center())
	// Connected blocks should end up adjacent: distance ~ one block
	// pitch, certainly below three.
	if d > 3000 {
		t.Errorf("connected blocks %d nm apart", d)
	}
}

func TestPlaceSymmetryPairs(t *testing.T) {
	blocks := squareBlocks("dpa", "dpb", "load", "tail")
	sym := []SymPair{{A: "dpa", B: "dpb"}}
	pl, err := PlaceCtx(context.Background(), blocks, nil, sym, Params{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := pl.Pos["dpa"], pl.Pos["dpb"]
	if dy := ra.Y0 - rb.Y0; math.Abs(float64(dy)) > 100 {
		t.Errorf("symmetric pair y misaligned by %d", dy)
	}
	if pl.SymErr > 200 {
		t.Errorf("residual symmetry violation %g", pl.SymErr)
	}
}

func TestPlaceChoosesVariantsForPacking(t *testing.T) {
	// One tall-thin / short-wide block among squares: with a strong
	// area objective, the annealer picks the variant that packs.
	blocks := []Block{
		{Name: "flex", Variants: []Variant{
			{W: 4000, H: 250, Tag: "wide"},
			{W: 1000, H: 1000, Tag: "square"},
		}},
		{Name: "b1", Variants: []Variant{{W: 1000, H: 1000}}},
		{Name: "b2", Variants: []Variant{{W: 1000, H: 1000}}},
		{Name: "b3", Variants: []Variant{{W: 1000, H: 1000}}},
	}
	pl, err := PlaceCtx(context.Background(), blocks, nil, nil, Params{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Variant["flex"] != 1 {
		// The wide variant forces a >= 4000-wide bbox; square packs
		// 2x2. Occasionally SA may still land there, so only check
		// the area is competitive.
		if pl.BBox.Area() > 5e6 {
			t.Errorf("variant choice poor: area %d with variant %d",
				pl.BBox.Area(), pl.Variant["flex"])
		}
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, err := PlaceCtx(context.Background(), nil, nil, nil, Params{}); err == nil {
		t.Error("empty block list accepted")
	}
	if _, err := PlaceCtx(context.Background(), []Block{{Name: "a"}}, nil, nil, Params{}); err == nil {
		t.Error("variant-less block accepted")
	}
	dup := []Block{
		{Name: "a", Variants: []Variant{{W: 1, H: 1}}},
		{Name: "a", Variants: []Variant{{W: 1, H: 1}}},
	}
	if _, err := PlaceCtx(context.Background(), dup, nil, nil, Params{}); err == nil {
		t.Error("duplicate block accepted")
	}
	blocks := squareBlocks("a")
	if _, err := PlaceCtx(context.Background(), blocks, []Net{{Name: "n", Blocks: []string{"ghost"}}}, nil, Params{}); err == nil {
		t.Error("net with unknown block accepted")
	}
	if _, err := PlaceCtx(context.Background(), blocks, nil, []SymPair{{A: "a", B: "ghost"}}, Params{}); err == nil {
		t.Error("symmetry with unknown block accepted")
	}
	if _, err := PlaceCtx(context.Background(), blocks, nil, nil, Params{Replicas: MaxReplicas + 1}); err == nil {
		t.Errorf("%d replicas accepted, above MaxReplicas", MaxReplicas+1)
	}
}

func TestPlaceSingleBlock(t *testing.T) {
	pl, err := PlaceCtx(context.Background(), squareBlocks("only"), nil, nil, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pl.BBox.W() != 1000 || pl.BBox.H() != 1000 {
		t.Errorf("single-block bbox %v", pl.BBox)
	}
	if pl.Pos["only"] != (geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}) {
		t.Errorf("single block at %v", pl.Pos["only"])
	}
}

func TestPlaceDeterministicWithSeed(t *testing.T) {
	blocks := squareBlocks("a", "b", "c", "d")
	nets := []Net{{Name: "n", Blocks: []string{"a", "b"}}}
	p1, err := PlaceCtx(context.Background(), blocks, nets, nil, Params{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlaceCtx(context.Background(), squareBlocks("a", "b", "c", "d"), nets, nil, Params{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if p1.Pos[b.Name] != p2.Pos[b.Name] {
			t.Errorf("placement not deterministic for %s", b.Name)
		}
	}
}

// Property: placements never overlap, for arbitrary block mixes and
// seeds.
func TestPlaceNoOverlapProperty(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		n := len(sizes)
		if n < 2 {
			return true
		}
		if n > 8 {
			n = 8
		}
		blocks := make([]Block, n)
		for i := 0; i < n; i++ {
			w := int64(sizes[i]%2000) + 100
			h := int64(sizes[(i+1)%len(sizes)]%2000) + 100
			blocks[i] = Block{
				Name:     string(rune('a' + i)),
				Variants: []Variant{{W: w, H: h}},
			}
		}
		pl, err := PlaceCtx(context.Background(), blocks, nil, nil, Params{Seed: seed})
		if err != nil {
			return false
		}
		for i := range blocks {
			for j := i + 1; j < len(blocks); j++ {
				if pl.Pos[blocks[i].Name].Intersects(pl.Pos[blocks[j].Name]) {
					return false
				}
			}
		}
		// Bounding box covers everything.
		for _, b := range blocks {
			if pl.Pos[b.Name].Union(pl.BBox) != pl.BBox {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPlaceSymPairVariantLockstep is the regression test for the
// variant-mismatch bug: a variant move on one half of a SymPair used
// to leave the other half on a different option, so "matched"
// primitives annealed into different aspect-ratio layouts. Variant
// moves must keep every pair in lockstep.
func TestPlaceSymPairVariantLockstep(t *testing.T) {
	variants := []Variant{
		{W: 4000, H: 250, Tag: "wide"},
		{W: 1000, H: 1000, Tag: "square"},
		{W: 250, H: 4000, Tag: "tall"},
	}
	for seed := int64(1); seed <= 8; seed++ {
		blocks := []Block{
			{Name: "dpa", Variants: variants},
			{Name: "dpb", Variants: variants},
			{Name: "load", Variants: variants[:2]},
			{Name: "tail", Variants: []Variant{{W: 1000, H: 1000}}},
		}
		sym := []SymPair{{A: "dpa", B: "dpb"}}
		pl, err := PlaceCtx(context.Background(), blocks, nil, sym, Params{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Variant["dpa"] != pl.Variant["dpb"] {
			t.Errorf("seed %d: sym pair variants diverged: dpa=%d dpb=%d",
				seed, pl.Variant["dpa"], pl.Variant["dpb"])
		}
	}
}

// TestPlaceIncrementalMatchesFull turns on the debug assertion that
// re-evaluates every accepted and rejected move from scratch and
// panics if the incremental cost ever diverges bit-for-bit.
func TestPlaceIncrementalMatchesFull(t *testing.T) {
	debugCheckIncremental = true
	defer func() { debugCheckIncremental = false }()
	blocks := []Block{
		{Name: "a", Variants: []Variant{{W: 1200, H: 800}, {W: 800, H: 1200}}},
		{Name: "b", Variants: []Variant{{W: 1200, H: 800}, {W: 800, H: 1200}}},
		{Name: "c", Variants: []Variant{{W: 2000, H: 500}, {W: 1000, H: 1000}, {W: 500, H: 2000}}},
		{Name: "d", Variants: []Variant{{W: 900, H: 900}}},
		{Name: "e", Variants: []Variant{{W: 600, H: 1500}, {W: 1500, H: 600}}},
	}
	nets := []Net{
		{Name: "n1", Blocks: []string{"a", "b", "c"}},
		{Name: "n2", Blocks: []string{"c", "d"}, Weight: 3},
		{Name: "n3", Blocks: []string{"d", "e", "a"}},
	}
	sym := []SymPair{{A: "a", B: "b"}}
	if _, err := PlaceCtx(context.Background(), blocks, nets, sym, Params{Seed: 11, Replicas: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceReplicaWorkerInvariance: for a fixed seed the multi-replica
// engine must produce byte-identical placements whatever the worker
// pool size, and across repeated runs.
func TestPlaceReplicaWorkerInvariance(t *testing.T) {
	mk := func() ([]Block, []Net, []SymPair) {
		blocks := []Block{
			{Name: "a", Variants: []Variant{{W: 1200, H: 800}, {W: 800, H: 1200}}},
			{Name: "b", Variants: []Variant{{W: 1200, H: 800}, {W: 800, H: 1200}}},
			{Name: "c", Variants: []Variant{{W: 2000, H: 500}, {W: 1000, H: 1000}}},
			{Name: "d", Variants: []Variant{{W: 900, H: 900}}},
		}
		nets := []Net{{Name: "n", Blocks: []string{"a", "c"}}}
		sym := []SymPair{{A: "a", B: "b"}}
		return blocks, nets, sym
	}
	var ref *Placement
	for _, workers := range []int{1, 2, 8, 1} {
		blocks, nets, sym := mk()
		pl, err := PlaceCtx(context.Background(), blocks, nets, sym, Params{Seed: 9, Replicas: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pl
			continue
		}
		if pl.BBox != ref.BBox || pl.HPWL != ref.HPWL || pl.SymErr != ref.SymErr {
			t.Fatalf("workers=%d changed the result: bbox %v vs %v, hpwl %d vs %d",
				workers, pl.BBox, ref.BBox, pl.HPWL, ref.HPWL)
		}
		for name, r := range ref.Pos {
			if pl.Pos[name] != r || pl.Variant[name] != ref.Variant[name] {
				t.Errorf("workers=%d moved %s: %v/%d vs %v/%d", workers, name,
					pl.Pos[name], pl.Variant[name], r, ref.Variant[name])
			}
		}
	}
}

// TestPlaceSymViolationUnequalHeights: the y-alignment term must see
// the height mismatch when the two halves of a pair carry variants
// of different heights.
func TestPlaceSymViolationUnequalHeights(t *testing.T) {
	st := newState(
		[]Block{
			{Name: "a", Variants: []Variant{{W: 1000, H: 400}}},
			{Name: "b", Variants: []Variant{{W: 1000, H: 800}}},
		},
		nil,
		[]SymPair{{A: "a", B: "b"}},
	)
	st.index["a"], st.index["b"] = 0, 1
	st.buildTopology()
	// Perfectly mirrored x about axis 2000, but misaligned in y.
	rects := []geom.Rect{
		{X0: 500, Y0: 0, X1: 1500, Y1: 400},
		{X0: 2500, Y0: 300, X1: 3500, Y1: 1100},
	}
	g := &st.gens[st.cur]
	for i, r := range rects {
		g.x0[i], g.y0[i], g.x1[i], g.y1[i] = r.X0, r.Y0, r.X1, r.Y1
	}
	got := st.symViolation(g)
	// Axis = mean pair midpoint = 2000; mirror distances match (1000
	// each), so the violation is purely the 300 nm Y0 offset.
	if math.Abs(got-300) > 1e-9 {
		t.Errorf("symViolation = %g, want 300", got)
	}
}

// TestPlaceScheduleBandCountPinned pins the temperature-band count
// for a fixed seed. The schedule now anchors its stop threshold to
// the monotone best cost: before the fix it tracked the fluctuating
// current cost, so an accepted uphill move lengthened the schedule
// and a lucky downhill run truncated it, making the band count (and
// runtime) wander. With best-cost anchoring the count is exactly
// ln(startTemp/(best·1e-4))/ln(1/cooling) for this fixture.
func TestPlaceScheduleBandCountPinned(t *testing.T) {
	tr := obs.New()
	root := tr.Start("test")
	blocks := squareBlocks("a", "b", "c", "d", "e")
	nets := []Net{{Name: "n", Blocks: []string{"a", "e"}}}
	ctx := obs.WithSpan(obs.With(context.Background(), tr), root)
	if _, err := PlaceCtx(ctx, blocks, nets, nil, Params{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	root.End()
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := obs.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	sp := d.Span("place.anneal")
	if sp == nil {
		t.Fatal("no place.anneal span")
	}
	if got, ok := sp.Attrs["bands"].(float64); !ok || got != 118 {
		t.Errorf("bands = %v, want 118", sp.Attrs["bands"])
	}
	// The replica accounting the CI checktrace relies on.
	if m := d.Metric("place.replicas"); m == nil || m.Value != 1 {
		t.Errorf("place.replicas metric = %v, want 1", m)
	}
	reps := d.SpansNamed("place.replica")
	if len(reps) != 1 {
		t.Fatalf("place.replica spans = %d, want 1", len(reps))
	}
	if _, ok := reps[0].Attrs["best_cost"]; !ok {
		t.Error("place.replica span missing best_cost attr")
	}
}
