package layoutio

import (
	"context"
	"strings"
	"testing"

	"primopt/internal/geom"
	"primopt/internal/pdk"
	"primopt/internal/place"
	"primopt/internal/route"
)

func samplePlacement() *place.Placement {
	return &place.Placement{
		Pos: map[string]geom.Rect{
			"dp0":  {X0: 0, Y0: 0, X1: 2000, Y1: 1000},
			"pcm0": {X0: 0, Y0: 1000, X1: 2000, Y1: 1800},
		},
		BBox: geom.Rect{X0: 0, Y0: 0, X1: 2000, Y1: 1800},
	}
}

func TestWriteSVGBasic(t *testing.T) {
	svg, err := WriteSVG(samplePlacement(), nil, SVGOptions{Title: "test <layout>"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "</svg>", "dp0", "pcm0",
		"test &lt;layout&gt;", // escaped title
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two blocks -> two block rects (plus background).
	if n := strings.Count(svg, "<rect"); n != 3 {
		t.Errorf("rect count = %d, want 3", n)
	}
}

func TestWriteSVGWithRoutes(t *testing.T) {
	routing := &route.Result{Nets: map[string]*route.NetRoute{
		"out": {
			Name:          "out",
			LengthByLayer: map[pdk.Layer]int64{2: 800},
			Segments: []route.Segment{
				{Layer: 2, From: geom.Point{X: 100, Y: 500}, To: geom.Point{X: 900, Y: 500}},
			},
		},
	}}
	svg, err := WriteSVG(samplePlacement(), routing, SVGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<line") {
		t.Error("route segment missing")
	}
	if !strings.Contains(svg, ">M3<") {
		t.Error("layer legend missing")
	}
}

func TestWriteSVGEmpty(t *testing.T) {
	if _, err := WriteSVG(nil, nil, SVGOptions{}); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := WriteSVG(&place.Placement{}, nil, SVGOptions{}); err == nil {
		t.Error("empty placement accepted")
	}
}

func TestWriteSVGFromRealFlow(t *testing.T) {
	// Render a real OTA placement end to end (integration).
	svg, err := WriteSVG(realPlacement(t), nil, SVGOptions{PixelsPerUM: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(svg) < 200 {
		t.Error("implausibly small SVG")
	}
}

func realPlacement(t *testing.T) *place.Placement {
	t.Helper()
	blocks := []place.Block{
		{Name: "a", Variants: []place.Variant{{W: 1000, H: 500}}},
		{Name: "b", Variants: []place.Variant{{W: 800, H: 700}}},
		{Name: "c", Variants: []place.Variant{{W: 600, H: 600}}},
	}
	pl, err := place.PlaceCtx(context.Background(), blocks, nil, nil, place.Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
