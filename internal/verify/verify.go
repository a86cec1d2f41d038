// Package verify is the static layout verification subsystem: a DRC
// engine that sweeps every rectangle of a materialized layout against
// PDK-derived rules (min width, min spacing, manufacturing grid, via
// enclosure, shorts, placement boundary), and an LVS engine that
// re-extracts connectivity purely from the geometry (shape overlap
// plus the via graph), reconstructs a netlist, and compares it
// against the source circuit.
//
// The generators elsewhere in this repository produce layout
// *estimates* (bounding boxes and wire statistics); verify
// materializes them into concrete rectangles first — cell.go turns a
// cellgen.Layout into strap/spine/via geometry, toplevel.go turns a
// placement plus global routing into track-assigned wires — and then
// runs both engines over the result. Violations are structured
// diagnostics so flow can fail fast and cmd/primopt can emit JSON.
package verify

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"primopt/internal/geom"
	"primopt/internal/pdk"
)

// LayerID identifies a drawing layer of the materialized layout.
// Metal layers reuse their pdk.Layer value (0 = M1). Diffusion and
// poly sit below zero; via layers are offset by viaBase so via v(i)
// (connecting metal i and i+1) is viaBase+i.
type LayerID int

// Non-metal layers.
const (
	LayerDiff LayerID = -2
	LayerPoly LayerID = -1

	viaBase LayerID = 100
)

// ViaLayer returns the LayerID of the via connecting metal lower and
// lower+1.
func ViaLayer(lower pdk.Layer) LayerID { return viaBase + LayerID(lower) }

// IsMetal reports whether l is a routing metal layer.
func (l LayerID) IsMetal() bool { return l >= 0 && l < viaBase }

// IsVia reports whether l is a via-cut layer.
func (l LayerID) IsVia() bool { return l >= viaBase }

// ViaLower returns the metal layer below a via layer.
func (l LayerID) ViaLower() pdk.Layer { return pdk.Layer(l - viaBase) }

// Name renders the layer for diagnostics ("M3", "v1", "poly", ...).
func (l LayerID) Name(t *pdk.Tech) string {
	switch {
	case l == LayerDiff:
		return "diff"
	case l == LayerPoly:
		return "poly"
	case l.IsVia():
		return fmt.Sprintf("v%d", int(l.ViaLower()))
	case t != nil && int(l) < len(t.Metals):
		return t.Metals[l].Name
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Kind classifies a shape's role.
type Kind int

// Shape roles: ordinary wire metal, a pin (terminal access point the
// LVS netlist reconstruction anchors on), or an obstruction.
const (
	KindWire Kind = iota
	KindPin
	KindObs
)

// Shape is one rectangle of the materialized layout.
type Shape struct {
	Layer LayerID
	Rect  geom.Rect
	// Net labels the electrical net ("" = unlabeled, e.g. dummy poly).
	Net string
	// Kind marks pins and obstructions.
	Kind Kind
	// Ref carries a diagnostic label (instance, terminal, route net).
	Ref string
}

// Rule names one DRC/LVS rule class.
type Rule string

// The rule classes.
const (
	RuleWidth     Rule = "min_width"
	RuleSpacing   Rule = "min_spacing"
	RuleGrid      Rule = "off_grid"
	RuleEnclosure Rule = "via_enclosure"
	RuleShort     Rule = "short"
	RuleBoundary  Rule = "boundary"
	RuleOpen      Rule = "open"
	RuleDevice    Rule = "device_mismatch"
	RuleNet       Rule = "net_mismatch"
	RuleSymmetry  Rule = "symmetry"
)

// Violation is one structured diagnostic.
type Violation struct {
	Rule  Rule        `json:"rule"`
	Layer string      `json:"layer,omitempty"`
	Cell  string      `json:"cell,omitempty"`
	Rects []geom.Rect `json:"rects,omitempty"`
	Nets  []string    `json:"nets,omitempty"`
	Msg   string      `json:"msg"`
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", v.Rule)
	if v.Layer != "" {
		fmt.Fprintf(&b, " [%s]", v.Layer)
	}
	if v.Cell != "" {
		fmt.Fprintf(&b, " cell=%s", v.Cell)
	}
	if len(v.Nets) > 0 {
		fmt.Fprintf(&b, " nets=%s", strings.Join(v.Nets, ","))
	}
	for _, r := range v.Rects {
		fmt.Fprintf(&b, " %v", r)
	}
	if v.Msg != "" {
		fmt.Fprintf(&b, ": %s", v.Msg)
	}
	return b.String()
}

// Report aggregates the verification outcome of one layout (or one
// whole flow run: per-cell reports merge into the top report with
// each violation keeping its Cell tag).
type Report struct {
	Target     string      `json:"target,omitempty"` // benchmark or cell name
	Shapes     int         `json:"shapes"`
	Violations []Violation `json:"violations"`
}

// Add appends a violation.
func (r *Report) Add(v Violation) { r.Violations = append(r.Violations, v) }

// Merge folds another report's violations (and shape count) into r.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Shapes += o.Shapes
	r.Violations = append(r.Violations, o.Violations...)
}

// Clean reports whether no violations were found.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Count returns the number of violations of one rule class.
func (r *Report) Count(rule Rule) int {
	n := 0
	for _, v := range r.Violations {
		if v.Rule == rule {
			n++
		}
	}
	return n
}

// Counts returns violation counts per rule class.
func (r *Report) Counts() map[Rule]int {
	out := map[Rule]int{}
	for _, v := range r.Violations {
		out[v.Rule]++
	}
	return out
}

// Summary renders a one-line-per-rule overview.
func (r *Report) Summary() string {
	if r.Clean() {
		return fmt.Sprintf("verify %s: clean (%d shapes)", r.Target, r.Shapes)
	}
	counts := r.Counts()
	rules := make([]string, 0, len(counts))
	for rule := range counts {
		rules = append(rules, string(rule))
	}
	sort.Strings(rules)
	var b strings.Builder
	fmt.Fprintf(&b, "verify %s: %d violations (%d shapes)", r.Target, len(r.Violations), r.Shapes)
	for _, rule := range rules {
		fmt.Fprintf(&b, " %s=%d", rule, counts[Rule(rule)])
	}
	return b.String()
}

// JSON renders the report for machine consumption.
func (r *Report) JSON() ([]byte, error) {
	if r.Violations == nil {
		r.Violations = []Violation{}
	}
	return json.MarshalIndent(r, "", "  ")
}

// Rules holds the derived design-rule numbers the DRC sweep checks.
type Rules struct {
	// Grid is the manufacturing grid every edge must land on, nm.
	Grid int64
	// MinWidth per layer, nm.
	MinWidth map[LayerID]int64
	// MinSpace per layer between shapes of different nets, nm
	// (Chebyshev: a violation needs both axis gaps below MinSpace).
	MinSpace map[LayerID]int64
	// ViaCut is the via cut edge length, nm.
	ViaCut int64
	// ViaEnc is the minimum metal enclosure beyond the cut on every
	// side, nm.
	ViaEnc int64
}

// DefaultRules derives the rule deck from the technology: metal
// minimum width is the drawn track width, minimum spacing is the
// pitch minus the width (track-to-track gap), poly minimum width is
// the gate length with one track of spacing, diffusion minimum width
// is the fin pitch.
func DefaultRules(t *pdk.Tech) *Rules {
	r := &Rules{
		Grid:     2,
		MinWidth: map[LayerID]int64{},
		MinSpace: map[LayerID]int64{},
		ViaCut:   16,
		ViaEnc:   2,
	}
	for i, m := range t.Metals {
		r.MinWidth[LayerID(i)] = m.Width
		r.MinSpace[LayerID(i)] = m.Pitch - m.Width
	}
	for i := 0; i < len(t.Vias); i++ {
		r.MinWidth[ViaLayer(pdk.Layer(i))] = r.ViaCut
		r.MinSpace[ViaLayer(pdk.Layer(i))] = r.ViaCut
	}
	r.MinWidth[LayerPoly] = t.GateL
	r.MinSpace[LayerPoly] = t.PolyPitch - t.GateL - 14 // adjacent fingers leave one contact bar
	if r.MinSpace[LayerPoly] < 0 {
		r.MinSpace[LayerPoly] = 0
	}
	r.MinWidth[LayerDiff] = t.FinPitch
	// Diffusion has no spacing rule here: generated diffusion strips
	// abut by construction (shared S/D), and diffusion is excluded
	// from the conduction graph, so abutment carries no net meaning.
	return r
}

// Options tunes a verification run.
type Options struct {
	// Rules overrides the derived rule deck (nil = DefaultRules).
	Rules *Rules
}

func (o Options) rules(t *pdk.Tech) *Rules {
	if o.Rules != nil {
		return o.Rules
	}
	return DefaultRules(t)
}
