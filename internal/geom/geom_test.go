package geom

import (
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if d := p.ManhattanDist(q); d != 5 {
		t.Errorf("ManhattanDist = %d", d)
	}
	if s := p.String(); s != "(1,2)" {
		t.Errorf("String = %q", s)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r != (Rect{1, 2, 5, 7}) {
		t.Errorf("NewRect = %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.W() != 4 || r.H() != 2 || r.Area() != 8 {
		t.Errorf("W/H/Area = %d %d %d", r.W(), r.H(), r.Area())
	}
	if r.AspectRatio() != 0.5 {
		t.Errorf("AspectRatio = %g", r.AspectRatio())
	}
	if r.Empty() {
		t.Error("non-empty rect reported empty")
	}
	e := Rect{}
	if !e.Empty() || e.W() != 0 || e.H() != 0 || e.AspectRatio() != 0 {
		t.Error("empty rect misbehaves")
	}
	if c := r.Center(); c != (Point{2, 1}) {
		t.Errorf("Center = %v", c)
	}
	if got := r.Translate(Point{10, 20}); got != (Rect{10, 20, 14, 22}) {
		t.Errorf("Translate = %v", got)
	}
	if got := r.Expand(1); got != (Rect{-1, -1, 5, 3}) {
		t.Errorf("Expand = %v", got)
	}
}

func TestRectUnionIntersect(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	if u := a.Union(b); u != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", u)
	}
	if !a.Intersects(b) {
		t.Error("overlapping rects reported disjoint")
	}
	c := Rect{5, 5, 6, 6}
	if a.Intersects(c) {
		t.Error("disjoint rects reported overlapping")
	}
	// Union with empty is identity.
	if u := a.Union(Rect{}); u != a {
		t.Errorf("Union with empty = %v", u)
	}
	if u := (Rect{}).Union(a); u != a {
		t.Errorf("empty Union = %v", u)
	}
	// Touching edges do not intersect (half-open).
	d := Rect{2, 0, 4, 2}
	if a.Intersects(d) {
		t.Error("edge-touching rects reported overlapping")
	}
}

func TestContains(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{1, 1}) {
		t.Error("interior points not contained")
	}
	if r.Contains(Point{2, 1}) || r.Contains(Point{1, 2}) {
		t.Error("exclusive upper-right violated")
	}
}

func TestOrientationApply(t *testing.T) {
	// Cell 4 wide, 2 tall; corner point (1, 0).
	p := Point{1, 0}
	w, h := int64(4), int64(2)
	cases := []struct {
		o    Orientation
		want Point
	}{
		{N, Point{1, 0}},
		{S, Point{3, 2}},
		{FN, Point{3, 0}},
		{FS, Point{1, 2}},
		{E, Point{2, 1}},
		{W, Point{0, 3}},
		{FE, Point{0, 1}},
		{FW, Point{2, 3}},
	}
	for _, c := range cases {
		if got := c.o.Apply(p, w, h); got != c.want {
			t.Errorf("%v.Apply = %v, want %v", c.o, got, c.want)
		}
	}
}

func TestOrientationSwapsAndString(t *testing.T) {
	if N.String() != "N" || FW.String() != "FW" {
		t.Error("orientation names wrong")
	}
	if Orientation(99).String() == "" {
		t.Error("out-of-range orientation name empty")
	}
}

// Property: applying S twice is the identity (180° rotation is an
// involution), as is each flip.
func TestOrientationInvolutions(t *testing.T) {
	f := func(x, y int16, wraw, hraw uint8) bool {
		w, h := int64(wraw)+1, int64(hraw)+1
		p := Point{int64(x), int64(y)}
		for _, o := range []Orientation{S, FN, FS} {
			if o.Apply(o.Apply(p, w, h), w, h) != p {
				return false
			}
		}
		// FE (transpose) is also an involution.
		if FE.Apply(FE.Apply(p, w, h), h, w) != p {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxHPWL(t *testing.T) {
	pts := []Point{{0, 0}, {3, 1}, {1, 4}}
	b := BBox(pts)
	if b != (Rect{0, 0, 4, 5}) {
		t.Errorf("BBox = %v", b)
	}
	if w := HPWL(pts); w != 3+4 {
		t.Errorf("HPWL = %d, want 7", w)
	}
	if HPWL(nil) != 0 || HPWL([]Point{{1, 1}}) != 0 {
		t.Error("degenerate HPWL should be 0")
	}
	if !BBox(nil).Empty() {
		t.Error("BBox of nothing should be empty")
	}
}

func TestSnap(t *testing.T) {
	cases := []struct {
		v, pitch, down int64
	}{
		{7, 4, 4},
		{8, 4, 8},
		{0, 4, 0},
		{-1, 4, -4},
		{-4, 4, -4},
		{-5, 4, -8},
	}
	for _, c := range cases {
		if got := SnapDown(c.v, c.pitch); got != c.down {
			t.Errorf("SnapDown(%d,%d) = %d, want %d", c.v, c.pitch, got, c.down)
		}
	}
}

// Property: SnapDown(v) <= v, a multiple of pitch within one pitch
// of v.
func TestSnapProperty(t *testing.T) {
	f := func(v int32, praw uint8) bool {
		pitch := int64(praw%64) + 1
		x := int64(v)
		d := SnapDown(x, pitch)
		return d <= x && d%pitch == 0 && x-d < pitch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Zero-area rectangles (degenerate lines and points) must behave as
// empty everywhere: they are produced transiently by Expand with
// negative margins, and the DRC sweep must never see them as real
// geometry.
func TestZeroAreaRects(t *testing.T) {
	cases := []Rect{
		{3, 3, 3, 3}, // point
		{0, 0, 5, 0}, // horizontal line
		{0, 0, 0, 5}, // vertical line
		{4, 1, 2, 1}, // inverted X with zero H
	}
	full := Rect{-10, -10, 10, 10}
	for _, z := range cases {
		if !z.Empty() {
			t.Errorf("%v should be empty", z)
		}
		if z.Area() != 0 {
			t.Errorf("%v Area = %d, want 0", z, z.Area())
		}
		if z.Intersects(full) || full.Intersects(z) {
			t.Errorf("%v intersects a full rect", z)
		}
		if got := full.Union(z); got != full {
			t.Errorf("full.Union(%v) = %v, want %v", z, got, full)
		}
		if z.Contains(Point{z.X0, z.Y0}) {
			t.Errorf("%v contains its own corner despite zero area", z)
		}
	}
	// Expand past collapse produces an empty rect, not a flipped one.
	if got := (Rect{0, 0, 4, 4}).Expand(-3); !got.Empty() {
		t.Errorf("over-shrunk rect = %v, want empty", got)
	}
}

// Touching rectangles share an edge or corner but no interior: they
// must not intersect (half-open semantics) while their union is still
// the joint bounding box. This is exactly the abutting-wire case the
// connectivity extractor distinguishes from a true overlap.
func TestTouchingRects(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	cases := []struct {
		name string
		b    Rect
	}{
		{"right edge", Rect{4, 0, 8, 4}},
		{"top edge", Rect{0, 4, 4, 8}},
		{"corner", Rect{4, 4, 8, 8}},
		{"partial edge", Rect{4, 2, 8, 6}},
	}
	for _, c := range cases {
		if a.Intersects(c.b) || c.b.Intersects(a) {
			t.Errorf("%s: touching rects %v %v reported overlapping", c.name, a, c.b)
		}
		want := Rect{0, 0, max64(a.X1, c.b.X1), max64(a.Y1, c.b.Y1)}
		if got := a.Union(c.b); got != want {
			t.Errorf("%s: Union = %v, want %v", c.name, got, want)
		}
	}
	// One-nm overlap is the smallest true intersection.
	o := Rect{3, 3, 8, 8}
	if !a.Intersects(o) {
		t.Error("1nm-overlap rects reported disjoint")
	}
}

// Union and intersection of track-pitch-aligned rectangles must stay
// on the pitch grid: routing runs are built by merging per-track
// intervals and any off-grid drift would cascade into DRC grid
// violations.
func TestPitchBoundaryUnionIntersect(t *testing.T) {
	const pitch = 40
	// Two wire segments on the same track, abutting at a pitch multiple.
	s1 := Rect{0 * pitch, 90, 3 * pitch, 110}
	s2 := Rect{3 * pitch, 90, 5 * pitch, 110}
	u := s1.Union(s2)
	if u != (Rect{0, 90, 5 * pitch, 110}) {
		t.Errorf("abutting union = %v", u)
	}
	for _, v := range []int64{u.X0, u.X1} {
		if SnapDown(v, pitch) != v {
			t.Errorf("union X edge %d fell off the %dnm pitch", v, pitch)
		}
	}
	if s1.Intersects(s2) {
		t.Error("abutting pitch-aligned segments reported overlapping")
	}
	// Overlapping by exactly one pitch.
	if s3 := (Rect{2 * pitch, 90, 6 * pitch, 110}); !s1.Intersects(s3) {
		t.Error("pitch-overlapping segments reported disjoint")
	}
	// SnapDown takes an interior point onto the lower boundary.
	if mid := int64(2*pitch + 17); SnapDown(mid, pitch) != 2*pitch {
		t.Errorf("SnapDown(%d) = %d, want %d", mid, SnapDown(mid, pitch), 2*pitch)
	}
}
