// Package geom provides the integer-grid geometry primitives used by
// the cell generator, placer, and router. All coordinates are in
// nanometers on the manufacturing grid, following gridded FinFET
// design rules where every shape snaps to fin/poly/track pitches.
package geom

import "fmt"

// Point is a location on the nm grid.
type Point struct {
	X, Y int64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanDist returns |dx| + |dy| between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return abs64(p.X-q.X) + abs64(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is an axis-aligned rectangle with inclusive lower-left (X0, Y0)
// and exclusive upper-right (X1, Y1); empty when X1 <= X0 or Y1 <= Y0.
type Rect struct {
	X0, Y0, X1, Y1 int64
}

// NewRect returns the rectangle spanning the two corner points in any
// order.
func NewRect(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// W returns the width (0 for empty rectangles).
func (r Rect) W() int64 {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the height (0 for empty rectangles).
func (r Rect) H() int64 {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Empty reports whether the rectangle encloses no area.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Area returns W*H.
func (r Rect) Area() int64 { return r.W() * r.H() }

// AspectRatio returns H/W as a float (0 for empty width).
func (r Rect) AspectRatio() float64 {
	if r.W() == 0 {
		return 0
	}
	return float64(r.H()) / float64(r.W())
}

// Center returns the center point (rounded down).
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.X0 + d.X, r.Y0 + d.Y, r.X1 + d.X, r.Y1 + d.Y}
}

// Union returns the bounding box of r and q; empty inputs are ignored.
func (r Rect) Union(q Rect) Rect {
	if r.Empty() {
		return q
	}
	if q.Empty() {
		return r
	}
	return Rect{
		min64(r.X0, q.X0), min64(r.Y0, q.Y0),
		max64(r.X1, q.X1), max64(r.Y1, q.Y1),
	}
}

// Intersects reports whether r and q share interior area.
func (r Rect) Intersects(q Rect) bool {
	return !r.Empty() && !q.Empty() &&
		r.X0 < q.X1 && q.X0 < r.X1 && r.Y0 < q.Y1 && q.Y0 < r.Y1
}

// Contains reports whether p lies inside r (inclusive lower-left,
// exclusive upper-right).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// Expand returns r grown by d on every side (negative d shrinks).
func (r Rect) Expand(d int64) Rect {
	return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Orientation is one of the eight layout orientations (rotations and
// mirrors) used for placement.
type Orientation uint8

// The eight orientations: N is identity; FN/FS/FE/FW are flips.
const (
	N Orientation = iota
	S
	E
	W
	FN
	FS
	FE
	FW
)

var orientNames = [...]string{"N", "S", "E", "W", "FN", "FS", "FE", "FW"}

func (o Orientation) String() string {
	if int(o) < len(orientNames) {
		return orientNames[o]
	}
	return fmt.Sprintf("Orientation(%d)", uint8(o))
}

// Apply transforms a point within a cell of the given size (w, h) from
// the cell's own frame to the placed frame for orientation o.
func (o Orientation) Apply(p Point, w, h int64) Point {
	switch o {
	case N:
		return p
	case S:
		return Point{w - p.X, h - p.Y}
	case E:
		return Point{h - p.Y, p.X}
	case W:
		return Point{p.Y, w - p.X}
	case FN:
		return Point{w - p.X, p.Y}
	case FS:
		return Point{p.X, h - p.Y}
	case FE:
		return Point{p.Y, p.X}
	case FW:
		return Point{h - p.Y, w - p.X}
	default:
		return p
	}
}

// BBox returns the bounding box of the points, or an empty Rect for no
// points.
func BBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X + 1, pts[0].Y + 1}
	for _, p := range pts[1:] {
		r.X0 = min64(r.X0, p.X)
		r.Y0 = min64(r.Y0, p.Y)
		r.X1 = max64(r.X1, p.X+1)
		r.Y1 = max64(r.Y1, p.Y+1)
	}
	return r
}

// HPWL returns the half-perimeter wirelength of the points' bounding
// box, the standard placement net-length estimate.
func HPWL(pts []Point) int64 {
	if len(pts) < 2 {
		return 0
	}
	b := BBox(pts)
	return (b.W() - 1) + (b.H() - 1)
}

// SnapDown snaps v down to a multiple of pitch (pitch must be > 0).
func SnapDown(v, pitch int64) int64 {
	if v >= 0 {
		return v - v%pitch
	}
	r := v % pitch
	if r == 0 {
		return v
	}
	return v - r - pitch
}
