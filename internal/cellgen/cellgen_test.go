package cellgen

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"primopt/internal/pdk"
)

var tech = pdk.Default()

func dpSpec(fins int) Spec {
	return Spec{Name: "dp", Structure: Pair, TotalFins: fins, RatioB: 1, L: 14}
}

func TestEnumerateFactorizations(t *testing.T) {
	cfgs, err := Enumerate(dpSpec(960), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) == 0 {
		t.Fatal("no configs")
	}
	for _, c := range cfgs {
		if c.NFin*c.NF*c.M != 960 {
			t.Errorf("config %s does not factor 960", c.ID())
		}
		if c.NFin < 4 || c.NFin > 32 {
			t.Errorf("nfin out of range: %s", c.ID())
		}
	}
	// The paper's Table III configurations must be present.
	want := []Config{
		{NFin: 8, NF: 20, M: 6, Pattern: PatABBA},
		{NFin: 16, NF: 12, M: 5, Pattern: PatABAB},
		{NFin: 24, NF: 20, M: 2, Pattern: PatAABB},
		{NFin: 12, NF: 20, M: 4, Pattern: PatABBA},
	}
	for _, w := range want {
		found := false
		for _, c := range cfgs {
			if c.NFin == w.NFin && c.NF == w.NF && c.M == w.M && c.Pattern == w.Pattern {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("config %s missing from enumeration", w.ID())
		}
	}
}

func TestEnumeratePatternLegality(t *testing.T) {
	cfgs, err := Enumerate(dpSpec(960), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cfgs {
		if c.Pattern == PatAABB && c.M%2 != 0 {
			t.Errorf("AABB with odd m: %s", c.ID())
		}
		if c.Pattern == PatABBA && c.M < 2 {
			t.Errorf("ABBA with m=1: %s", c.ID())
		}
		if c.Pattern == PatA {
			t.Errorf("single pattern on a pair: %s", c.ID())
		}
	}
	// Singles only get PatA.
	sing, err := Enumerate(Spec{Name: "cs", Structure: Single, TotalFins: 64, L: 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sing {
		if c.Pattern != PatA {
			t.Errorf("single with pattern %v", c.Pattern)
		}
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate(Spec{Name: "x", TotalFins: 0}, nil); err == nil {
		t.Error("zero fins accepted")
	}
	// A prime fin count with no legal nfin in [4..32]: 37 is prime and
	// out of the nfin range, so nothing factors.
	if _, err := Enumerate(Spec{Name: "x", Structure: Single, TotalFins: 37}, nil); err == nil {
		t.Error("unfactorable count accepted")
	}
}

func TestExpandPattern(t *testing.T) {
	cases := []struct {
		p      PatternKind
		mA, mB int
		want   []int
	}{
		{PatAABB, 2, 2, []int{0, 0, 1, 1}},
		{PatABAB, 2, 2, []int{0, 1, 0, 1}},
		{PatABBA, 2, 2, []int{0, 1, 1, 0}},
		{PatA, 3, 0, []int{0, 0, 0}},
		{PatABAB, 2, 4, []int{0, 1, 1, 0, 1, 1}},
	}
	for _, c := range cases {
		got := expandPattern(c.p, c.mA, c.mB)
		if len(got) != len(c.want) {
			t.Errorf("%v(%d,%d) len = %d, want %d", c.p, c.mA, c.mB, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v(%d,%d) = %v, want %v", c.p, c.mA, c.mB, got, c.want)
				break
			}
		}
	}
}

// Property: every pattern expansion contains exactly mA zeros and mB
// ones, and ABBA for even equal counts is a palindrome.
func TestExpandPatternProperty(t *testing.T) {
	f := func(mAr, mBr uint8, pr uint8) bool {
		mA := int(mAr)%6 + 1
		mB := int(mBr)%6 + 1
		p := []PatternKind{PatABAB, PatABBA, PatAABB}[int(pr)%3]
		seq := expandPattern(p, mA, mB)
		a, b := 0, 0
		for _, s := range seq {
			if s == 0 {
				a++
			} else {
				b++
			}
		}
		return a == mA && b == mB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	// ABBA palindrome for equal even counts.
	for _, m := range []int{2, 4, 6} {
		seq := expandPattern(PatABBA, m, m)
		for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
			if seq[i] != seq[j] {
				t.Errorf("ABBA m=%d not palindromic: %v", m, seq)
				break
			}
		}
	}
}

func TestGenerateGeometry(t *testing.T) {
	spec := dpSpec(960)
	lay, err := Generate(tech, spec, Config{NFin: 8, NF: 20, M: 6, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	if lay.BBox.Empty() {
		t.Fatal("empty bbox")
	}
	// Even nf: diffusion shared, no inter-unit gaps.
	if !lay.SharedDiffusion {
		t.Error("even nf should share diffusion")
	}
	wantW := 2*tech.DiffExtE + 12*20*tech.PolyPitch // 12 units × 20 gates, 1 row
	if lay.BBox.W() != wantW {
		t.Errorf("row width = %d, want %d", lay.BBox.W(), wantW)
	}
	wantH := 8*tech.FinPitch + rowOverheadH
	if lay.BBox.H() != wantH {
		t.Errorf("row height = %d, want %d", lay.BBox.H(), wantH)
	}
}

func TestABBATwoRowGeometry(t *testing.T) {
	// Common-centroid pairs fold into two rows: half the width, twice
	// the height of the interdigitated version.
	ab, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Pattern: PatABBA})
	if err != nil {
		t.Fatal(err)
	}
	if cc.BBox.H() != 2*ab.BBox.H() {
		t.Errorf("ABBA height = %d, want %d", cc.BBox.H(), 2*ab.BBox.H())
	}
	if cc.BBox.W() >= ab.BBox.W() {
		t.Errorf("ABBA width %d should be about half of ABAB %d", cc.BBox.W(), ab.BBox.W())
	}
}

func TestAspectRatioVariesAcrossConfigs(t *testing.T) {
	// Tall-thin (high nfin, low nf·m) vs short-wide must differ in
	// aspect ratio — this is what the paper's binning exploits.
	a, err := Generate(tech, dpSpec(960), Config{NFin: 24, NF: 20, M: 2, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	if a.AspectRatio <= b.AspectRatio {
		t.Errorf("nfin=24 AR %g should exceed nfin=8 AR %g", a.AspectRatio, b.AspectRatio)
	}
}

func TestABBASymmetricNoMismatch(t *testing.T) {
	lay, err := Generate(tech, dpSpec(960), Config{NFin: 12, NF: 20, M: 4, Pattern: PatABBA})
	if err != nil {
		t.Fatal(err)
	}
	if mm := math.Abs(lay.MismatchDVth()); mm > 1e-4 {
		t.Errorf("ABBA mismatch = %g V, want ~0", mm)
	}
}

func TestAABBHasLargeMismatch(t *testing.T) {
	cc, err := Generate(tech, dpSpec(960), Config{NFin: 24, NF: 20, M: 2, Pattern: PatABBA})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := Generate(tech, dpSpec(960), Config{NFin: 24, NF: 20, M: 2, Pattern: PatAABB})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gg.MismatchDVth()) <= math.Abs(cc.MismatchDVth())+1e-6 {
		t.Errorf("AABB mismatch %g should far exceed ABBA %g",
			gg.MismatchDVth(), cc.MismatchDVth())
	}
}

func TestABABNearSymmetric(t *testing.T) {
	ab, err := Generate(tech, dpSpec(960), Config{NFin: 12, NF: 20, M: 4, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := Generate(tech, dpSpec(960), Config{NFin: 12, NF: 20, M: 4, Pattern: PatAABB})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.MismatchDVth()) >= math.Abs(gg.MismatchDVth()) {
		t.Errorf("ABAB mismatch %g should be below AABB %g",
			ab.MismatchDVth(), gg.MismatchDVth())
	}
}

func TestDummiesRelieveShiftAndGrowCell(t *testing.T) {
	none, err := Generate(tech, dpSpec(960), Config{NFin: 12, NF: 20, M: 4, Pattern: PatABBA})
	if err != nil {
		t.Fatal(err)
	}
	dum, err := Generate(tech, dpSpec(960), Config{NFin: 12, NF: 20, M: 4, Pattern: PatABBA, Dummies: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dum.BBox.W() <= none.BBox.W() {
		t.Error("dummies should widen the cell")
	}
	if dum.Shift[0].DVth >= none.Shift[0].DVth {
		t.Errorf("dummies should reduce average shift: %g vs %g",
			dum.Shift[0].DVth, none.Shift[0].DVth)
	}
}

func TestJunctionSharingReducesDrainCap(t *testing.T) {
	// Even nf (shared) vs odd nf (unshared) at the same total fins:
	// the unshared layout has more end diffusion per unit.
	shared, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 15, M: 8, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.SharedDiffusion || unshared.SharedDiffusion {
		t.Fatal("sharing flags wrong")
	}
	// Drain diffusion per finger is larger without sharing (odd nf
	// puts one large end diffusion on the drain).
	sharedAD := shared.Junctions[0].AD / float64(20*6)
	unsharedAD := unshared.Junctions[0].AD / float64(15*8)
	if unsharedAD <= sharedAD {
		t.Errorf("unshared AD/finger %g should exceed shared %g", unsharedAD, sharedAD)
	}
}

func TestWireEstimates(t *testing.T) {
	lay, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"s", "d_a", "d_b", "g_a", "g_b"} {
		w := lay.Wires[term]
		if w == nil || w.Length <= 0 || w.NWires != 1 {
			t.Errorf("terminal %s wire bad: %+v", term, w)
		}
	}
	// Source spine spans at least the full row.
	if lay.Wires["s"].Length < lay.BBox.W() {
		t.Error("source spine shorter than row")
	}
	// Singles have the single-device terminals.
	s, err := Generate(tech, Spec{Name: "cs", Structure: Single, TotalFins: 64, L: 14},
		Config{NFin: 8, NF: 8, M: 1, Pattern: PatA})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"s", "d", "g"} {
		if s.Wires[term] == nil {
			t.Errorf("single terminal %s missing", term)
		}
	}
}

func TestGroupedSpanShorterThanInterleaved(t *testing.T) {
	ab, _ := Generate(tech, dpSpec(960), Config{NFin: 24, NF: 20, M: 2, Pattern: PatABAB})
	gg, _ := Generate(tech, dpSpec(960), Config{NFin: 24, NF: 20, M: 2, Pattern: PatAABB})
	// Grouped A units abut, so the A drain span is shorter — the
	// routing upside that trades against the LDE mismatch downside.
	if gg.Wires["d_a"].Length >= ab.Wires["d_a"].Length {
		t.Errorf("AABB drain span %d should be below ABAB %d",
			gg.Wires["d_a"].Length, ab.Wires["d_a"].Length)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(tech, dpSpec(960), Config{NFin: 0, NF: 1, M: 1}); err == nil {
		t.Error("zero nfin accepted")
	}
	if _, err := Generate(tech, dpSpec(960), Config{NFin: 7, NF: 7, M: 7, Pattern: PatABAB}); err == nil {
		t.Error("non-factoring config accepted")
	}
	if _, err := Generate(tech, dpSpec(960), Config{NFin: 24, NF: 8, M: 5, Pattern: PatAABB}); err == nil {
		t.Error("AABB with odd m accepted")
	}
}

func TestGenerateAll(t *testing.T) {
	lays, err := GenerateAll(tech, dpSpec(960), &Constraints{MinNFin: 8, MaxNFin: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(lays) < 6 {
		t.Fatalf("only %d layouts", len(lays))
	}
	for _, l := range lays {
		if l.BBox.Empty() || len(l.Shift) != 2 || len(l.Junctions) != 2 {
			t.Errorf("layout %s malformed", l.Config.ID())
		}
	}
}

func TestMirrorRatioUnits(t *testing.T) {
	// 1:2 mirror: device B has twice the units of A.
	spec := Spec{Name: "cm", Structure: Pair, TotalFins: 240, RatioB: 2, L: 14}
	lay, err := Generate(tech, spec, Config{NFin: 12, NF: 10, M: 2, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.UnitCtx[0]) != 2 || len(lay.UnitCtx[1]) != 4 {
		t.Errorf("unit counts = %d, %d; want 2, 4",
			len(lay.UnitCtx[0]), len(lay.UnitCtx[1]))
	}
}

func TestConfigID(t *testing.T) {
	c := Config{NFin: 8, NF: 20, M: 6, Pattern: PatABBA}
	if c.ID() != "nfin=8;nf=20;m=6;ABBA" {
		t.Errorf("ID = %q", c.ID())
	}
	// ID is built with strconv; it must print what fmt printed, for
	// every pattern (an unknown one included) and any integers.
	for _, pat := range []PatternKind{PatA, PatABAB, PatABBA, PatAABB, PatternKind(7), PatternKind(-1)} {
		for _, c := range []Config{
			{NFin: 8, NF: 20, M: 6, Pattern: pat},
			{NFin: 0, NF: 1, M: 123456789, Dummies: 3, Pattern: pat},
			{NFin: -4, NF: math.MaxInt, M: math.MinInt, Pattern: pat},
		} {
			want := fmt.Sprintf("nfin=%d;nf=%d;m=%d;%s", c.NFin, c.NF, c.M, c.Pattern)
			if got := c.ID(); got != want {
				t.Errorf("ID = %q, want %q", got, want)
			}
		}
	}
}

func TestWireEstimatesMeshStructure(t *testing.T) {
	// The mesh model: per-finger straps and a bus-width spine for
	// current-carrying nets.
	lay, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	// Source straps contact every finger of each side: nf * units.
	if got := lay.Wires["s_a"].Straps; got != 20*6 {
		t.Errorf("s_a straps = %d, want 120", got)
	}
	// The shared spine is a wide bus.
	if lay.Wires["s"].BusTracks < 2 {
		t.Errorf("source spine BusTracks = %d", lay.Wires["s"].BusTracks)
	}
	// Gates contact every other finger.
	if got := lay.Wires["g_a"].Straps; got != (20*6+1)/2 {
		t.Errorf("g_a straps = %d", got)
	}
}

func TestTwoRowABBASpansHalve(t *testing.T) {
	ab, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: PatABAB})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Generate(tech, dpSpec(960), Config{NFin: 8, NF: 20, M: 6, Dummies: 2, Pattern: PatABBA})
	if err != nil {
		t.Fatal(err)
	}
	// The folded layout's drain spans are about half the 1-row spans.
	if cc.Wires["d_a"].Length >= ab.Wires["d_a"].Length {
		t.Errorf("2-row drain span %d not below 1-row %d",
			cc.Wires["d_a"].Length, ab.Wires["d_a"].Length)
	}
}

func TestMirrorRatioAABBLegality(t *testing.T) {
	// 1:3 mirror with odd total units folds only where legal.
	spec := Spec{Name: "cm13", Structure: Pair, TotalFins: 120, RatioB: 3, L: 14}
	cfgs, err := Enumerate(spec, &Constraints{MinNFin: 8, MaxNFin: 12, MaxM: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cfgs {
		lay, err := Generate(tech, spec, c)
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		if got := len(lay.UnitCtx[1]); got != 3*len(lay.UnitCtx[0]) {
			t.Errorf("%s: B units = %d, want 3x A units %d", c.ID(), got, len(lay.UnitCtx[0]))
		}
	}
}
