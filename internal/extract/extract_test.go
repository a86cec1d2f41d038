package extract

import (
	"context"
	"math"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

func dpLayout(t *testing.T, cfg cellgen.Config) *cellgen.Layout {
	t.Helper()
	spec := cellgen.Spec{Name: "dp", Structure: cellgen.Pair, TotalFins: 960, RatioB: 1, L: 14}
	lay, err := cellgen.Generate(tech, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func TestPrimitiveExtraction(t *testing.T) {
	lay := dpLayout(t, cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABAB})
	ex, err := Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Dev) != 2 {
		t.Fatalf("devices = %d", len(ex.Dev))
	}
	for _, term := range []string{"s", "d_a", "d_b", "g_a", "g_b"} {
		rc, ok := ex.Term[term]
		if !ok {
			t.Errorf("terminal %s missing", term)
			continue
		}
		if rc.R <= 0 || rc.Total() <= 0 {
			t.Errorf("terminal %s RC = %+v", term, rc)
		}
		// π split is symmetric.
		if rc.CNear != rc.CFar {
			t.Errorf("terminal %s π-split asymmetric", term)
		}
	}
	// Device parameters look physical.
	for i, d := range ex.Dev {
		if d.DVth <= 0 || d.DVth > 0.05 {
			t.Errorf("dev %d DVth = %g", i, d.DVth)
		}
		if d.DMu <= 0.8 || d.DMu > 1 {
			t.Errorf("dev %d DMu = %g", i, d.DMu)
		}
		if d.AD <= 0 || d.AS <= 0 || d.PD <= 0 || d.PS <= 0 {
			t.Errorf("dev %d junctions non-positive: %+v", i, d)
		}
	}
	// Magnitudes: source spine of a ~13 µm row on M1 should be ohms
	// to tens of ohms, and wire caps femtofarad-class.
	s := ex.Term["s"]
	if s.R < 1 || s.R > 20e3 {
		t.Errorf("source R = %g ohm", s.R)
	}
	if s.Total() < 0.1e-15 || s.Total() > 100e-15 {
		t.Errorf("source C = %g F", s.Total())
	}
}

func TestWireCountTradeoff(t *testing.T) {
	lay := dpLayout(t, cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABAB})
	base, err := Primitive(context.Background(), tech, lay)
	if err != nil {
		t.Fatal(err)
	}
	wide := lay.Clone()
	wide.Wires["s"].NWires = 4
	quad, err := Primitive(context.Background(), tech, wide)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Term["s"].R / quad.Term["s"].R; math.Abs(got-4) > 0.01 {
		t.Errorf("4 wires should quarter R: ratio %g", got)
	}
	if got := quad.Term["s"].Total() / base.Term["s"].Total(); math.Abs(got-4) > 0.01 {
		t.Errorf("4 wires should quadruple C: ratio %g", got)
	}
}

func TestExtractionSeesLDEDifferences(t *testing.T) {
	// AABB has device Vth mismatch; ABBA (2-row CC) does not.
	gg := dpLayout(t, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatAABB})
	cc := dpLayout(t, cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA})
	exg, err := Primitive(context.Background(), tech, gg)
	if err != nil {
		t.Fatal(err)
	}
	exc, err := Primitive(context.Background(), tech, cc)
	if err != nil {
		t.Fatal(err)
	}
	mmG := math.Abs(exg.Dev[0].DVth - exg.Dev[1].DVth)
	mmC := math.Abs(exc.Dev[0].DVth - exc.Dev[1].DVth)
	if mmG <= mmC {
		t.Errorf("AABB mismatch %g should exceed ABBA %g", mmG, mmC)
	}
}

func TestRouteRC(t *testing.T) {
	m3, err := tech.LayerByName("M3")
	if err != nil {
		t.Fatal(err)
	}
	r1, c1 := RouteRC(tech, Route{Layer: m3, Length: 2000, NWires: 1, PinLayer: 0})
	if r1 <= 0 || c1 <= 0 {
		t.Fatalf("route RC = %g, %g", r1, c1)
	}
	// Doubling wires halves R, doubles C.
	r2, c2 := RouteRC(tech, Route{Layer: m3, Length: 2000, NWires: 2, PinLayer: 0})
	if math.Abs(r1/r2-2) > 0.01 || math.Abs(c2/c1-2) > 0.01 {
		t.Errorf("parallel route scaling: R %g/%g C %g/%g", r1, r2, c1, c2)
	}
	// Longer routes cost more.
	r3, c3 := RouteRC(tech, Route{Layer: m3, Length: 4000, NWires: 1, PinLayer: 0})
	if r3 <= r1 || c3 <= c1 {
		t.Error("longer route should have more RC")
	}
	// Via count default: 0 treated as 2.
	rDef, _ := RouteRC(tech, Route{Layer: m3, Length: 2000, NWires: 1, PinLayer: 0, Vias: 0})
	if rDef != r1 {
		t.Error("default via count wrong")
	}
	// More via stacks add resistance.
	r5, _ := RouteRC(tech, Route{Layer: m3, Length: 2000, NWires: 1, PinLayer: 0, Vias: 5})
	if r5 <= r1 {
		t.Error("extra vias should add R")
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Primitive(context.Background(), tech, nil); err == nil {
		t.Error("nil layout accepted")
	}
	lay := dpLayout(t, cellgen.Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: cellgen.PatABAB})
	lay.Wires["bad"] = &cellgen.WireEst{Layer: 0, Length: -5, NWires: 1}
	if _, err := Primitive(context.Background(), tech, lay); err == nil {
		t.Error("negative length accepted")
	}
}

func TestHigherLayerRouteLessResistive(t *testing.T) {
	m1r, _ := RouteRC(tech, Route{Layer: 0, Length: 5000, NWires: 1, PinLayer: 0})
	m5r, _ := RouteRC(tech, Route{Layer: 4, Length: 5000, NWires: 1, PinLayer: 0})
	if m5r >= m1r {
		t.Errorf("M5 route R %g should be below M1 %g", m5r, m1r)
	}
}
