// Package extract turns generated primitive layouts (cellgen) and
// global-route geometry into electrical parasitics: per-device LDE
// parameters and junction capacitances, per-terminal wire RC inside
// the primitive, and RC models for external routes at primitive ports.
// The outputs plug directly into the SPICE testbenches the primitive
// library builds, which is how the paper couples layout decisions to
// post-layout performance ("LDEs are modeled in layout extraction and
// their impact on performance can be evaluated using SPICE").
package extract

import (
	"context"
	"fmt"

	"primopt/internal/cellgen"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// DevParasitics carries everything the FinFET compact model reads
// from extraction for one device.
type DevParasitics struct {
	DVth float64 // V threshold shift (LDE + gradient)
	DMu  float64 // mobility factor (≈1)
	AD   float64 // drain diffusion area, nm^2
	AS   float64 // source diffusion area, nm^2
	PD   float64 // drain diffusion perimeter, nm
	PS   float64 // source diffusion perimeter, nm
}

// TermRC is the lumped π-model of one terminal's within-primitive
// routing: a series resistance between the device and the primitive
// port with the wire capacitance split across both ends.
type TermRC struct {
	R     float64 // ohm
	CNear float64 // F, device side
	CFar  float64 // F, port side
}

// Total returns the total wire capacitance of the terminal.
func (t TermRC) Total() float64 { return t.CNear + t.CFar }

// Extracted is the electrical view of one primitive layout.
type Extracted struct {
	Layout *cellgen.Layout
	Dev    []DevParasitics
	Term   map[string]TermRC
}

// Clone returns a deep copy of the extracted view, including a deep
// copy of the underlying layout (Layout on the clone points at the
// cloned layout, preserving the Layout/Extracted aliasing invariant
// evaluateOption establishes). The evaluation cache stores a computed
// entry through it, so the stored entry never shares a layout that the
// computing caller's tuning goes on mutating.
func (ex *Extracted) Clone() *Extracted {
	if ex == nil {
		return nil
	}
	out := &Extracted{
		Layout: ex.Layout.Clone(),
		Dev:    append([]DevParasitics(nil), ex.Dev...),
	}
	if ex.Term != nil {
		out.Term = make(map[string]TermRC, len(ex.Term))
		for k, v := range ex.Term {
			out.Term[k] = v
		}
	}
	return out
}

// spineInjectionFactor is the effective-resistance divisor for the
// spine part of a mesh: current injected uniformly along the length
// with a center tap gives the classic R/8 distributed result, and the
// generator runs twin spines (above and below the device row) for
// another factor of two.
const spineInjectionFactor = 16

// Primitive extracts a primitive layout: wire estimates become RC
// (including the via stack from the device level to the wire layer),
// LDE shifts and junction geometry become device parameters. Each
// run counts extract.runs on the context's trace.
func Primitive(ctx context.Context, t *pdk.Tech, lay *cellgen.Layout) (*Extracted, error) {
	if lay == nil {
		return nil, fmt.Errorf("extract: nil layout")
	}
	obs.From(ctx).Counter("extract.runs").Inc()
	ex := &Extracted{Layout: lay, Term: make(map[string]TermRC, len(lay.Wires))}
	for term, w := range lay.Wires {
		if w.Length < 0 || w.StrapLen < 0 {
			return nil, fmt.Errorf("extract: %s terminal %s has negative length", lay.Spec.Name, term)
		}
		n := w.NWires
		if n < 1 {
			n = 1
		}
		// Mesh model: Straps parallel M1 drops feed a spine carrying
		// distributed current to a central tap (factor 8 for uniform
		// injection with a center tap), plus the via stack onto the
		// spine layer. NWires parallel mesh copies divide R and
		// multiply C.
		var r, c float64
		if w.Straps > 0 && w.StrapLen > 0 {
			r += t.WireRes(0, w.StrapLen, 1) / float64(w.Straps)
			c += float64(w.Straps) * t.WireCap(0, w.StrapLen, 1)
		}
		if w.Length > 0 {
			tracks := w.BusTracks
			if tracks < 1 {
				tracks = 1
			}
			r += t.WireRes(w.Layer, w.Length, tracks) / spineInjectionFactor
			c += 2 * t.WireCap(w.Layer, w.Length, tracks) // twin spines
			straps := w.Straps
			if straps < 1 {
				straps = 1
			}
			r += t.ViaRes(0, w.Layer, straps)
			c += t.ViaCap(0, w.Layer, straps)
		}
		r /= float64(n)
		c *= float64(n)
		ex.Term[term] = TermRC{R: r, CNear: c / 2, CFar: c / 2}
	}
	for d := range lay.Shift {
		ex.Dev = append(ex.Dev, DevParasitics{
			DVth: lay.Shift[d].DVth,
			DMu:  lay.Shift[d].MuFactor,
			AD:   lay.Junctions[d].AD,
			AS:   lay.Junctions[d].AS,
			PD:   lay.Junctions[d].PD,
			PS:   lay.Junctions[d].PS,
		})
	}
	return ex, nil
}

// Route describes one external global route at a primitive port, as
// reported by the global router: the length on a routing layer and
// the via stack down to the pin layer, realized as NWires parallel
// routes.
type Route struct {
	Layer    pdk.Layer
	Length   int64 // nm
	NWires   int
	PinLayer pdk.Layer // layer of the primitive pin (usually M1)
	Vias     int       // number of via stacks along the route (>= 2 for the two ends)
}

// RouteRC returns the series resistance and total capacitance of an
// external route.
func RouteRC(t *pdk.Tech, r Route) (res, cap float64) {
	n := r.NWires
	if n < 1 {
		n = 1
	}
	vias := r.Vias
	if vias < 2 {
		vias = 2
	}
	res = t.WireRes(r.Layer, r.Length, n) + float64(vias)*t.ViaRes(r.PinLayer, r.Layer, n)
	cap = t.WireCap(r.Layer, r.Length, n) + float64(vias)*t.ViaCap(r.PinLayer, r.Layer, n)
	return res, cap
}
