package route

import (
	"context"
	"testing"
	"testing/quick"

	"primopt/internal/geom"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

func region() geom.Rect { return geom.Rect{X0: 0, Y0: 0, X1: 10000, Y1: 10000} }

func TestRouteTwoPinNet(t *testing.T) {
	nets := []NetReq{{
		Name: "n1",
		Pins: []Pin{
			{Block: "a", At: geom.Point{X: 500, Y: 500}},
			{Block: "b", At: geom.Point{X: 8500, Y: 500}},
		},
	}}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nets["n1"]
	if nr == nil {
		t.Fatal("net missing")
	}
	// Manhattan distance is 8000 nm; the route must be at least that
	// and not wildly longer.
	if nr.TotalLength() < 7800 || nr.TotalLength() > 16000 {
		t.Errorf("route length = %d, want ~8000", nr.TotalLength())
	}
	if len(nr.Segments) == 0 {
		t.Error("no segments recorded")
	}
}

func TestRouteUsesPreferredDirections(t *testing.T) {
	// A horizontal run must live on a horizontal layer.
	nets := []NetReq{{
		Name: "h",
		Pins: []Pin{
			{At: geom.Point{X: 500, Y: 5000}},
			{At: geom.Point{X: 9500, Y: 5000}},
		},
	}}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	for l, length := range res.Nets["h"].LengthByLayer {
		if length > 1000 && !tech.Metals[l].Horizontal {
			// Long runs on a vertical layer would mean preferred
			// directions are ignored.
			t.Errorf("long horizontal run (%d nm) on vertical layer %s",
				length, tech.Metals[l].Name)
		}
	}
}

func TestRouteLShapeCountsVias(t *testing.T) {
	nets := []NetReq{{
		Name: "l",
		Pins: []Pin{
			{At: geom.Point{X: 500, Y: 500}},
			{At: geom.Point{X: 8000, Y: 8000}},
		},
	}}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nets["l"]
	// An L needs at least one layer change (horizontal + vertical legs).
	if nr.Vias < 1 {
		t.Errorf("vias = %d, want >= 1", nr.Vias)
	}
	if len(nr.LengthByLayer) < 2 {
		t.Errorf("layers used = %d, want >= 2", len(nr.LengthByLayer))
	}
}

func TestRouteMultiPinSteiner(t *testing.T) {
	nets := []NetReq{{
		Name: "s",
		Pins: []Pin{
			{At: geom.Point{X: 500, Y: 500}},
			{At: geom.Point{X: 9500, Y: 500}},
			{At: geom.Point{X: 5000, Y: 9500}},
		},
	}}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nets["s"]
	// A Steiner topology beats three point-to-point routes: total
	// under the sum of pairwise distances.
	if nr.TotalLength() > 30000 {
		t.Errorf("steiner length = %d, too long", nr.TotalLength())
	}
	if nr.TotalLength() < 17000 {
		t.Errorf("steiner length = %d, impossibly short", nr.TotalLength())
	}
}

func TestRouteDominantLayer(t *testing.T) {
	nr := &NetRoute{LengthByLayer: map[pdk.Layer]int64{2: 5000, 3: 1000}}
	if nr.DominantLayer() != 2 {
		t.Errorf("dominant = %d", nr.DominantLayer())
	}
	empty := &NetRoute{LengthByLayer: map[pdk.Layer]int64{}}
	if empty.DominantLayer() != 2 {
		t.Error("default dominant layer should be M3")
	}
}

func TestRouteCongestionSpreadsNets(t *testing.T) {
	// Many parallel nets between the same two columns: congestion
	// pricing must keep overflow bounded.
	var nets []NetReq
	for i := 0; i < 6; i++ {
		nets = append(nets, NetReq{
			Name: string(rune('a' + i)),
			Pins: []Pin{
				{At: geom.Point{X: 500, Y: 500 + int64(i)*10}},
				{At: geom.Point{X: 9500, Y: 500 + int64(i)*10}},
			},
		})
	}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverflowEdges > 40 {
		t.Errorf("overflow edges = %d, congestion pricing ineffective", res.OverflowEdges)
	}
	for _, nr := range res.Nets {
		if nr.TotalLength() == 0 {
			t.Error("net unrouted")
		}
	}
}

func TestRouteSinglePinNet(t *testing.T) {
	nets := []NetReq{{Name: "solo", Pins: []Pin{{At: geom.Point{X: 100, Y: 100}}}}}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nets["solo"].TotalLength() != 0 {
		t.Error("single-pin net should have zero length")
	}
}

func TestRouteEmptyRegion(t *testing.T) {
	if _, err := RouteCtx(context.Background(), tech, geom.Rect{}, nil); err == nil {
		t.Error("empty region accepted")
	}
}

func TestRouteDeterministic(t *testing.T) {
	nets := []NetReq{
		{Name: "x", Pins: []Pin{{At: geom.Point{X: 500, Y: 500}}, {At: geom.Point{X: 9000, Y: 9000}}}},
		{Name: "y", Pins: []Pin{{At: geom.Point{X: 9000, Y: 500}}, {At: geom.Point{X: 500, Y: 9000}}}},
	}
	r1, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	for name := range r1.Nets {
		if r1.Nets[name].TotalLength() != r2.Nets[name].TotalLength() {
			t.Errorf("net %s not deterministic", name)
		}
		if r1.Nets[name].Vias != r2.Nets[name].Vias {
			t.Errorf("net %s via count not deterministic", name)
		}
	}
}

func TestRoutePinsOutsideRegionClamped(t *testing.T) {
	nets := []NetReq{{
		Name: "clamp",
		Pins: []Pin{
			{At: geom.Point{X: -500, Y: -500}},
			{At: geom.Point{X: 99999, Y: 99999}},
		},
	}}
	if _, err := RouteCtx(context.Background(), tech, region(), nets); err != nil {
		t.Fatalf("clamped routing failed: %v", err)
	}
}

// Property: every 2-pin net's route length is at least the gcell
// Manhattan distance and each net uses positive length on some layer.
func TestRouteLowerBoundProperty(t *testing.T) {
	f := func(ax, ay, bx, by uint16) bool {
		a := geom.Point{X: int64(ax%9000) + 200, Y: int64(ay%9000) + 200}
		b := geom.Point{X: int64(bx%9000) + 200, Y: int64(by%9000) + 200}
		if a.ManhattanDist(b) < 600 {
			return true // same/adjacent gcell: trivial
		}
		nets := []NetReq{{Name: "n", Pins: []Pin{{At: a}, {At: b}}}}
		res, err := RouteCtx(context.Background(), tech, region(), nets)
		if err != nil {
			return false
		}
		nr := res.Nets["n"]
		// The gcell quantization costs at most 2 cells per endpoint.
		slack := int64(4 * 200)
		return nr.TotalLength()+slack >= a.ManhattanDist(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRouteDeterministicCongested is the regression test for the A*
// map-iteration bug: the open heap used to be seeded by ranging over
// the tree map, so equal-cost paths flipped with Go's randomized map
// order, changing the congestion map and via counts between runs.
// On a congested multi-net fixture with many cost ties, repeated
// runs must now produce byte-identical geometry.
func TestRouteDeterministicCongested(t *testing.T) {
	mk := func() []NetReq {
		var nets []NetReq
		// Crossing + parallel nets over a shared column, with a
		// multi-pin net thrown in: plenty of equal-f frontier ties.
		for i := 0; i < 5; i++ {
			nets = append(nets, NetReq{
				Name: "h" + string(rune('0'+i)),
				Pins: []Pin{
					{At: geom.Point{X: 500, Y: 2000 + int64(i)*40}},
					{At: geom.Point{X: 9500, Y: 2000 + int64(i)*40}},
				},
			})
		}
		nets = append(nets, NetReq{
			Name: "x",
			Pins: []Pin{
				{At: geom.Point{X: 5000, Y: 500}},
				{At: geom.Point{X: 5000, Y: 9500}},
				{At: geom.Point{X: 500, Y: 5000}},
			},
		})
		return nets
	}
	ref, err := RouteCtx(context.Background(), tech, region(), mk())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		res, err := RouteCtx(context.Background(), tech, region(), mk())
		if err != nil {
			t.Fatal(err)
		}
		if res.OverflowEdges != ref.OverflowEdges {
			t.Fatalf("run %d: overflow %d vs %d", run, res.OverflowEdges, ref.OverflowEdges)
		}
		for name, want := range ref.Nets {
			got := res.Nets[name]
			if len(got.Segments) != len(want.Segments) {
				t.Fatalf("run %d net %s: %d segments vs %d", run, name, len(got.Segments), len(want.Segments))
			}
			for i := range want.Segments {
				if got.Segments[i] != want.Segments[i] {
					t.Fatalf("run %d net %s segment %d: %v vs %v", run, name, i, got.Segments[i], want.Segments[i])
				}
			}
			if len(got.ViaPoints) != len(want.ViaPoints) {
				t.Fatalf("run %d net %s: %d vias vs %d", run, name, len(got.ViaPoints), len(want.ViaPoints))
			}
			for i := range want.ViaPoints {
				if got.ViaPoints[i] != want.ViaPoints[i] {
					t.Fatalf("run %d net %s via %d: %v vs %v", run, name, i, got.ViaPoints[i], want.ViaPoints[i])
				}
			}
			for l, ln := range want.LengthByLayer {
				if got.LengthByLayer[l] != ln {
					t.Fatalf("run %d net %s layer %d: %d vs %d", run, name, l, got.LengthByLayer[l], ln)
				}
			}
		}
	}
}

// TestRouteSameGcellPins: a pin landing in the gcell the tree already
// occupies routes with an empty path — no segments, no vias, and the
// dominant layer reported to port optimization falls back to M3.
func TestRouteSameGcellPins(t *testing.T) {
	nets := []NetReq{{
		Name: "tight",
		Pins: []Pin{
			{Block: "a", At: geom.Point{X: 100, Y: 100}},
			{Block: "b", At: geom.Point{X: 180, Y: 150}},
		},
	}}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nets["tight"]
	if nr.TotalLength() != 0 {
		t.Errorf("length = %d, want 0", nr.TotalLength())
	}
	if len(nr.Segments) != 0 || nr.Vias != 0 || len(nr.ViaPoints) != 0 {
		t.Errorf("same-gcell route has geometry: %d segments, %d vias", len(nr.Segments), nr.Vias)
	}
	if nr.DominantLayer() != 2 {
		t.Errorf("dominant layer = %d, want M3 fallback (2)", nr.DominantLayer())
	}
}

// TestRouteCommitViaOnlyPath drives commit directly with a pure
// layer-hop path: every hop must be recorded as a ViaPoint with the
// correct Lower layer and contribute no wire length.
func TestRouteCommitViaOnlyPath(t *testing.T) {
	r := &router{tech: tech, maxLayer: pdk.Layer(tech.NumLayers() - 1), nx: 50, ny: 50, use: map[[5]int]int{}}
	nr := &NetRoute{Name: "v", LengthByLayer: map[pdk.Layer]int64{}}
	// Path is goal-to-tree order, as astar reconstructs it: descend
	// from layer 4 to the pin landing at MinLayer (2).
	path := []node{{x: 3, y: 4, l: 2}, {x: 3, y: 4, l: 3}, {x: 3, y: 4, l: 4}}
	r.commit(nr, path, region())
	if nr.Vias != 2 {
		t.Fatalf("vias = %d, want 2", nr.Vias)
	}
	// The path is walked goal-first, so the 2↔3 hop lands before the
	// 3↔4 hop; each Lower names the lower layer of its stack.
	if got := []pdk.Layer{nr.ViaPoints[0].Lower, nr.ViaPoints[1].Lower}; got[0] != 2 || got[1] != 3 {
		t.Errorf("via lowers = %v, want [2 3]", got)
	}
	want := geom.Point{X: 3*200 + 100, Y: 4*200 + 100}
	for i, vp := range nr.ViaPoints {
		if vp.At != want {
			t.Errorf("via %d at %v, want %v", i, vp.At, want)
		}
	}
	if nr.TotalLength() != 0 || len(nr.Segments) != 0 {
		t.Errorf("via-only path added wire: len=%d segments=%d", nr.TotalLength(), len(nr.Segments))
	}
	if len(r.use) != 0 {
		t.Errorf("via-only path touched the congestion map: %v", r.use)
	}
}
