// Package cellgen is the procedural primitive layout generator of the
// flow (Fig. 5 of the paper): given a primitive specification (device
// sizes as total fin count and the pairing structure), it enumerates
// the legal layout configurations — factorizations of the fin count
// into (nfin, nf, m), placement patterns (interdigitated ABAB,
// common-centroid ABBA, grouped AABB), and dummy options — and
// produces for each a geometric layout estimate: bounding box and
// aspect ratio, per-device LDE contexts, junction diffusion areas
// (diffusion-sharing aware), and per-terminal wire estimates that
// parasitic extraction turns into RC networks.
package cellgen

import (
	"fmt"
	"sort"
	"strconv"

	"primopt/internal/geom"
	"primopt/internal/lde"
	"primopt/internal/pdk"
)

// PatternKind is a placement pattern for the units of a primitive.
type PatternKind int

// Placement patterns. PatA is the trivial pattern for single-device
// primitives.
const (
	PatA PatternKind = iota
	PatABAB
	PatABBA
	PatAABB
)

var patternNames = [...]string{"A", "ABAB", "ABBA", "AABB"}

func (p PatternKind) String() string {
	if p >= 0 && int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Structure describes how many matched devices a primitive layout
// holds.
type Structure int

// Primitive structures: a single device or a matched pair (with an
// optional ratio for mirrors).
const (
	Single Structure = iota
	Pair
)

// Spec describes the devices of one primitive to be laid out.
type Spec struct {
	Name      string
	Structure Structure
	// TotalFins is the fin count (nfin*nf*m) of device A. For Pair
	// structures device B has TotalFins*RatioB fins.
	TotalFins int
	// RatioB is device B's size as a multiple of device A's (1 for
	// matched pairs, N for 1:N current mirrors). Ignored for Single.
	RatioB int
	// L is the drawn gate length in nm.
	L int64
}

// Config is one layout configuration of a primitive.
type Config struct {
	NFin, NF, M int // per-unit fins, fingers per unit, units of device A
	Dummies     int // dummy poly fingers at each row end
	Pattern     PatternKind
}

// ID renders the configuration in the style of the paper's tables:
// nfin=N;nf=N;m=N;PATTERN. Spans, placement tags and panic labels
// call it, so it is built with strconv rather than fmt.
func (c Config) ID() string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "nfin="...), int64(c.NFin), 10)
	b = strconv.AppendInt(append(b, ";nf="...), int64(c.NF), 10)
	b = strconv.AppendInt(append(b, ";m="...), int64(c.M), 10)
	b = append(append(b, ';'), c.Pattern.String()...)
	return string(b)
}

// WireEst is the generator's estimate for the within-primitive routing
// of one terminal net. FinFET primitives use mesh-like routing (the
// paper notes this is standard to reduce resistive parasitics in the
// lower metals): every unit drops a short M1 strap onto a spine that
// runs across the cell. The estimate therefore carries a strap part
// (Straps parallel drops of StrapLen each) and a spine part (Length
// on Layer, with current injected along it — extraction applies the
// distributed-injection factor). NWires is the tuning knob: the whole
// mesh replicated as parallel copies, dividing R and multiplying C.
type WireEst struct {
	Layer    pdk.Layer // spine layer
	Length   int64     // spine length, nm (0 = no spine part)
	StrapLen int64     // per-strap length on M1, nm (0 = no straps)
	Straps   int       // parallel strap count
	// BusTracks is the spine's built-in track width: generators route
	// current-carrying spines (sources/tails) as multi-track buses.
	BusTracks int
	NWires    int // parallel mesh copies (>= 1), the tuning knob
}

// Junction aggregates the diffusion geometry of one device for
// junction-capacitance extraction.
type Junction struct {
	AD, AS float64 // drain/source diffusion area, nm^2
	PD, PS float64 // drain/source diffusion perimeter, nm
}

// UnitPlace records where one unit of the pattern landed: which
// device it realizes and its grid slot in the row/column raster.
type UnitPlace struct {
	Dev      int   // 0 = device A, 1 = device B
	Row, Col int   // raster slot (serpentine already resolved)
	X        int64 // left edge of the unit's gate array, nm
}

// Layout is one generated primitive layout.
type Layout struct {
	Spec   Spec
	Config Config

	BBox        geom.Rect
	AspectRatio float64 // H / W

	// UnitCtx holds the per-unit LDE contexts for each device (index
	// 0 = device A, 1 = device B when present).
	UnitCtx [][]lde.Context
	// Shift is the fin-weighted average LDE shift per device,
	// including the linear-gradient term evaluated at the device
	// centroid (the component common-centroid patterns cancel).
	Shift []lde.Shift
	// Centroid is the mean unit-center x position per device, nm.
	Centroid []float64
	// Junctions per device.
	Junctions []Junction
	// Wires per terminal. Pair terminals: "s", "d_a", "d_b", "g_a",
	// "g_b". Single terminals: "s", "d", "g".
	Wires map[string]*WireEst

	// SharedDiffusion reports whether adjacent units abut (even nf).
	SharedDiffusion bool

	// Concrete unit raster, recorded so geometry consumers
	// (verification, rendering) rebuild exact shapes without
	// re-deriving the pattern expansion. RowH is the height of one
	// row; UnitW the gate-array width of one unit; EndExt the row-end
	// extension (end diffusion plus dummies); Gap the space between
	// non-abutting units.
	Rows, Cols  int
	RowH, UnitW int64
	EndExt, Gap int64
	Units       []UnitPlace
}

// Constraints bound the enumeration.
type Constraints struct {
	MinNFin, MaxNFin int // per-unit fin range (defaults 4..32)
	MaxM             int // max multiplicity (default 8)
	MaxNF            int // max fingers per unit (default 32)
	DummyOptions     []int
	Patterns         []PatternKind // allowed patterns (defaults by structure)
}

func (c *Constraints) withDefaults(s Structure) Constraints {
	// Two edge dummies are the FinFET default (dummy poly at strip
	// ends is mandatory in advanced nodes and relieves edge LOD
	// stress); pass explicit DummyOptions to explore alternatives.
	out := Constraints{MinNFin: 4, MaxNFin: 32, MaxM: 8, MaxNF: 32, DummyOptions: []int{2}}
	if c != nil {
		if c.MinNFin > 0 {
			out.MinNFin = c.MinNFin
		}
		if c.MaxNFin > 0 {
			out.MaxNFin = c.MaxNFin
		}
		if c.MaxM > 0 {
			out.MaxM = c.MaxM
		}
		if c.MaxNF > 0 {
			out.MaxNF = c.MaxNF
		}
		if len(c.DummyOptions) > 0 {
			out.DummyOptions = c.DummyOptions
		}
		if len(c.Patterns) > 0 {
			out.Patterns = c.Patterns
		}
	}
	if len(out.Patterns) == 0 {
		if s == Single {
			out.Patterns = []PatternKind{PatA}
		} else {
			out.Patterns = []PatternKind{PatABAB, PatABBA, PatAABB}
		}
	}
	return out
}

// Enumerate lists the legal layout configurations for a spec: all
// (nfin, nf, m) with nfin*nf*m == TotalFins within the constraint
// box, crossed with the allowed patterns and dummy options.
func Enumerate(spec Spec, cons *Constraints) ([]Config, error) {
	if spec.TotalFins < 1 {
		return nil, fmt.Errorf("cellgen: %s: TotalFins must be positive", spec.Name)
	}
	c := cons.withDefaults(spec.Structure)
	var out []Config
	for nfin := c.MinNFin; nfin <= c.MaxNFin; nfin++ {
		if spec.TotalFins%nfin != 0 {
			continue
		}
		rest := spec.TotalFins / nfin
		for m := 1; m <= c.MaxM; m++ {
			if rest%m != 0 {
				continue
			}
			nf := rest / m
			if nf < 1 || nf > c.MaxNF {
				continue
			}
			for _, pat := range c.Patterns {
				if !patternLegal(spec.Structure, pat, m) {
					continue
				}
				for _, dum := range c.DummyOptions {
					out = append(out, Config{NFin: nfin, NF: nf, M: m, Dummies: dum, Pattern: pat})
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cellgen: %s: no legal configuration for %d fins", spec.Name, spec.TotalFins)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NFin != out[j].NFin {
			return out[i].NFin < out[j].NFin
		}
		if out[i].NF != out[j].NF {
			return out[i].NF < out[j].NF
		}
		if out[i].M != out[j].M {
			return out[i].M < out[j].M
		}
		if out[i].Pattern != out[j].Pattern {
			return out[i].Pattern < out[j].Pattern
		}
		return out[i].Dummies < out[j].Dummies
	})
	return out, nil
}

// patternLegal encodes which patterns apply: singles use PatA only;
// pairs need m >= 2 for ABBA, and AABB additionally needs even m (the
// paper's Table III likewise omits AABB for odd multiplicity).
func patternLegal(s Structure, p PatternKind, m int) bool {
	if s == Single {
		return p == PatA
	}
	switch p {
	case PatABAB:
		return true
	case PatABBA:
		return m >= 2
	case PatAABB:
		return m >= 2 && m%2 == 0
	default:
		return false
	}
}

// expandPattern produces the left-to-right unit sequence (0 = device
// A, 1 = device B) for mA units of A and mB units of B.
func expandPattern(p PatternKind, mA, mB int) []int {
	switch p {
	case PatA:
		return make([]int, mA)
	case PatAABB:
		seq := make([]int, 0, mA+mB)
		for i := 0; i < mA; i++ {
			seq = append(seq, 0)
		}
		for i := 0; i < mB; i++ {
			seq = append(seq, 1)
		}
		return seq
	case PatABAB:
		return interleave(mA, mB)
	case PatABBA:
		// Alternating AB / BA blocks: for a 1:1 pair this yields the
		// classic ABBA...; for ratios it mirrors the interleave of the
		// first half onto the second half.
		half := interleave((mA+1)/2, (mB+1)/2)
		restA := mA - (mA+1)/2
		restB := mB - (mB+1)/2
		second := interleave(restA, restB)
		// Mirror the second half for centroid symmetry.
		for i, j := 0, len(second)-1; i < j; i, j = i+1, j-1 {
			second[i], second[j] = second[j], second[i]
		}
		return append(half, second...)
	default:
		return make([]int, mA)
	}
}

// interleave distributes mA zeros and mB ones as evenly as possible.
func interleave(mA, mB int) []int {
	seq := make([]int, 0, mA+mB)
	a, b := 0, 0
	for a < mA || b < mB {
		// Emit whichever device is further behind its proportional
		// quota.
		if b >= mB || (a < mA && a*(mB)+0 <= b*(mA)) {
			seq = append(seq, 0)
			a++
		} else {
			seq = append(seq, 1)
			b++
		}
	}
	return seq
}

// rowOverheadH is the vertical overhead (gate extension, contacts,
// guard) added to nfin*FinPitch for the cell height, in nm.
const rowOverheadH = 160

// Generate produces the layout estimate for one configuration.
func Generate(t *pdk.Tech, spec Spec, cfg Config) (*Layout, error) {
	if cfg.NFin < 1 || cfg.NF < 1 || cfg.M < 1 {
		return nil, fmt.Errorf("cellgen: %s: bad config %+v", spec.Name, cfg)
	}
	if cfg.NFin*cfg.NF*cfg.M != spec.TotalFins {
		return nil, fmt.Errorf("cellgen: %s: config %s does not factor %d fins",
			spec.Name, cfg.ID(), spec.TotalFins)
	}
	nDev := 1
	ratioB := 0
	if spec.Structure == Pair {
		nDev = 2
		ratioB = spec.RatioB
		if ratioB < 1 {
			ratioB = 1
		}
	}
	if !patternLegal(spec.Structure, cfg.Pattern, cfg.M) {
		return nil, fmt.Errorf("cellgen: %s: pattern %v illegal for m=%d", spec.Name, cfg.Pattern, cfg.M)
	}

	mA := cfg.M
	mB := cfg.M * ratioB

	// Common-centroid pairs are laid out as two rows in serpentine
	// (boustrophedon) order over the plain interleave, which realizes
	// the classic 2D common-centroid checkerboard: both devices share
	// the same x centroid and the same edge exposure, cancelling
	// linear gradients and LOD/WPE edge stress. Other patterns are
	// one row.
	rows := 1
	var seq []int
	if spec.Structure == Pair && cfg.Pattern == PatABBA && (mA+mB)%2 == 0 {
		rows = 2
		seq = interleave(mA, mB)
	} else {
		seq = expandPattern(cfg.Pattern, mA, mB)
	}
	cols := len(seq) / rows
	rowOf := make([]int, len(seq))
	colOf := make([]int, len(seq))
	for i := range seq {
		r := i / cols
		c := i % cols
		if r%2 == 1 {
			c = cols - 1 - c // serpentine: odd rows reverse
		}
		rowOf[i], colOf[i] = r, c
	}

	shared := cfg.NF%2 == 0 // even fingers: source diffusion at both unit ends
	unitW := int64(cfg.NF) * t.PolyPitch
	gap := int64(0)
	if !shared {
		gap = 2 * t.DiffExtE // two end diffusions between non-abutting units
	}
	endExt := t.DiffExtE + int64(cfg.Dummies)*t.PolyPitch

	// Unit x positions by column.
	starts := make([]int64, len(seq))
	for i := range seq {
		starts[i] = endExt + int64(colOf[i])*(unitW+gap)
	}
	rowW := endExt + int64(cols)*unitW + int64(cols-1)*gap + endExt
	perRowH := int64(cfg.NFin)*t.FinPitch + rowOverheadH
	rowH := int64(rows) * perRowH

	lay := &Layout{
		Spec:            spec,
		Config:          cfg,
		BBox:            geom.Rect{X0: 0, Y0: 0, X1: rowW, Y1: rowH},
		SharedDiffusion: shared,
		Wires:           make(map[string]*WireEst),
		Rows:            rows,
		Cols:            cols,
		RowH:            perRowH,
		UnitW:           unitW,
		EndExt:          endExt,
		Gap:             gap,
	}
	lay.AspectRatio = lay.BBox.AspectRatio()
	for i, dev := range seq {
		lay.Units = append(lay.Units, UnitPlace{Dev: dev, Row: rowOf[i], Col: colOf[i], X: starts[i]})
	}

	// Per-unit LDE contexts. With shared diffusion each row is one
	// continuous strip, so stress distances reach the row ends;
	// otherwise each unit is its own short strip.
	lay.UnitCtx = make([][]lde.Context, nDev)
	for i, dev := range seq {
		var ctx lde.Context
		ctx.NF = cfg.NF
		if shared {
			ctx.SA = starts[i] - endExt + t.DiffExtE
			ctx.SB = (rowW - endExt) - (starts[i] + unitW) + t.DiffExtE
		} else {
			ctx.SA = t.DiffExtE
			ctx.SB = t.DiffExtE
		}
		ctx.WellDist = min64(starts[i], rowW-(starts[i]+unitW)) + t.WellMargin
		if colOf[i] == 0 || colOf[i] == cols-1 {
			ctx.Dummies = cfg.Dummies
		}
		lay.UnitCtx[dev] = append(lay.UnitCtx[dev], ctx)
	}

	// Device centroids (mean unit-center x).
	lay.Centroid = make([]float64, nDev)
	counts := make([]float64, nDev)
	for i, dev := range seq {
		lay.Centroid[dev] += float64(starts[i]) + float64(unitW)/2
		counts[dev]++
	}
	for d := 0; d < nDev; d++ {
		if counts[d] == 0 {
			return nil, fmt.Errorf("cellgen: %s: device %d has no units in pattern %v",
				spec.Name, d, cfg.Pattern)
		}
		lay.Centroid[d] /= counts[d]
	}

	// Average shift per device (units conduct in parallel), plus the
	// linear process gradient evaluated at the device centroid — the
	// term that separates AABB from common-centroid patterns.
	lay.Shift = make([]lde.Shift, nDev)
	for d := 0; d < nDev; d++ {
		var dv, mu float64
		for _, c := range lay.UnitCtx[d] {
			s := lde.Eval(t, c)
			dv += s.DVth
			mu += s.MuFactor
		}
		n := float64(len(lay.UnitCtx[d]))
		lay.Shift[d] = lde.Shift{
			DVth:     dv/n + t.GradVthPerNm*lay.Centroid[d],
			MuFactor: mu / n,
		}
	}

	// Junction estimates.
	lay.Junctions = make([]Junction, nDev)
	finW := int64(cfg.NFin) * t.FinPitch
	for d := 0; d < nDev; d++ {
		units := len(lay.UnitCtx[d])
		j := &lay.Junctions[d]
		var nDrainInt, nDrainEnd, nSrcInt, nSrcEnd float64
		if shared {
			// Even nf: nf/2 interior drains; nf/2-1 interior sources
			// plus two boundary sources per unit. Boundary sources
			// shared between abutting units count half each.
			nDrainInt = float64(cfg.NF / 2)
			nSrcInt = float64(cfg.NF/2 - 1)
			nSrcEnd = 1 // two ends × half share
		} else {
			// Odd nf: ends are one (unshared, full-size) source and
			// one drain diffusion; each counts half per unit side.
			nDrainInt = float64((cfg.NF - 1) / 2)
			nDrainEnd = 0.5
			nSrcInt = float64((cfg.NF - 1) / 2)
			nSrcEnd = 0.5
		}
		areaInt := float64(finW * t.DiffExt)
		perimInt := 2 * float64(finW+t.DiffExt)
		areaEnd := float64(finW * t.DiffExtE)
		perimEnd := 2 * float64(finW+t.DiffExtE)
		j.AD = float64(units) * (nDrainInt*areaInt + nDrainEnd*areaEnd)
		j.PD = float64(units) * (nDrainInt*perimInt + nDrainEnd*perimEnd)
		j.AS = float64(units) * (nSrcInt*areaInt + nSrcEnd*areaEnd)
		j.PS = float64(units) * (nSrcInt*perimInt + nSrcEnd*perimEnd)
	}

	// Wire estimates: mesh routing. Each net gets one M1 strap per
	// unit (length = one row height) onto an M2 spine spanning its
	// units; gate nets spine on M1. For pairs, the common source is
	// split into per-side strap groups ("s_a", "s_b") — the
	// degeneration each device sees on its way to the common tail —
	// plus the shared spine ("s"), which is the tap the tuning step
	// widens.
	span := func(dev int) int64 {
		first, last := int64(-1), int64(-1)
		for i, d := range seq {
			if d != dev {
				continue
			}
			if first < 0 || starts[i] < first {
				first = starts[i]
			}
			if starts[i]+unitW > last {
				last = starts[i] + unitW
			}
		}
		if first < 0 {
			return 0
		}
		return last - first
	}
	hRow := int64(cfg.NFin)*t.FinPitch + rowOverheadH
	unitsOf := func(dev int) int { return len(lay.UnitCtx[dev]) }
	// Source and drain nets contact every finger's diffusion (the
	// trench-contact + via ladder standard in FinFET nodes); gates are
	// contacted every other finger. Strap runs are half a row tall.
	sdStraps := func(dev int) int { return cfg.NF * unitsOf(dev) }
	gStraps := func(dev int) int { return (cfg.NF*unitsOf(dev) + 1) / 2 }
	if spec.Structure == Single {
		lay.Wires["s"] = &WireEst{Layer: 1, Length: rowW, StrapLen: hRow / 2, Straps: sdStraps(0), BusTracks: 4, NWires: 1}
		lay.Wires["d"] = &WireEst{Layer: 1, Length: span(0), StrapLen: hRow / 2, Straps: sdStraps(0), BusTracks: 2, NWires: 1}
		lay.Wires["g"] = &WireEst{Layer: 1, Length: span(0), StrapLen: hRow / 2, Straps: gStraps(0), BusTracks: 1, NWires: 1}
	} else {
		lay.Wires["s_a"] = &WireEst{StrapLen: hRow / 2, Straps: sdStraps(0), NWires: 1}
		lay.Wires["s_b"] = &WireEst{StrapLen: hRow / 2, Straps: sdStraps(1), NWires: 1}
		lay.Wires["s"] = &WireEst{Layer: 1, Length: rowW, BusTracks: 4, NWires: 1}
		lay.Wires["d_a"] = &WireEst{Layer: 1, Length: span(0), StrapLen: hRow / 2, Straps: sdStraps(0), BusTracks: 2, NWires: 1}
		lay.Wires["d_b"] = &WireEst{Layer: 1, Length: span(1), StrapLen: hRow / 2, Straps: sdStraps(1), BusTracks: 2, NWires: 1}
		lay.Wires["g_a"] = &WireEst{Layer: 1, Length: span(0), StrapLen: hRow / 2, Straps: gStraps(0), BusTracks: 1, NWires: 1}
		lay.Wires["g_b"] = &WireEst{Layer: 1, Length: span(1), StrapLen: hRow / 2, Straps: gStraps(1), BusTracks: 1, NWires: 1}
	}
	return lay, nil
}

// GenerateAll enumerates and generates every legal layout.
func GenerateAll(t *pdk.Tech, spec Spec, cons *Constraints) ([]*Layout, error) {
	cfgs, err := Enumerate(spec, cons)
	if err != nil {
		return nil, err
	}
	out := make([]*Layout, 0, len(cfgs))
	for _, cfg := range cfgs {
		lay, err := Generate(t, spec, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, lay)
	}
	return out, nil
}

// MismatchDVth returns the systematic Vth mismatch between devices A
// and B of a pair layout (0 for singles) — the LDE-driven offset
// source.
func (l *Layout) MismatchDVth() float64 {
	if len(l.Shift) < 2 {
		return 0
	}
	return l.Shift[0].DVth - l.Shift[1].DVth
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
