package verify

import (
	"fmt"
	"math"
	"sort"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/circuits"
	"primopt/internal/geom"
	"primopt/internal/pdk"
	"primopt/internal/place"
	"primopt/internal/route"
)

// Top-level materialization: the global router emits gcell-center
// step segments and via counts; the placer emits block outlines. To
// run DRC/LVS over the assembly, this file rebuilds concrete wires:
// segments merge into maximal straight runs per (layer, line), each
// run is assigned a real track by an occupancy-aware allocator seeded
// with the blocks' internal shapes as obstacles, via cuts land at run
// crossings, and every primitive terminal is tied to its net's
// nearest pin-layer run through an M3 column extension plus one
// horizontal jog. Nets tuned to n parallel wires are materialized as
// the single-track skeleton all n copies share — the same
// simplification the cell materializer applies to its mesh estimate.

// TopInput carries one flow run's layout state into CheckTop.
type TopInput struct {
	Bench     *circuits.Benchmark
	Placement *place.Placement
	Routing   *route.Result
	// Layouts holds the chosen (placed) layout per instance.
	Layouts map[string]*cellgen.Layout
	// Region is the routing region the router ran over.
	Region geom.Rect
}

// run is one straight wire piece awaiting track assignment: a line on
// a layer at nominal line-coordinate fixed, spanning [lo, hi] along
// the layer direction.
type run struct {
	layer  pdk.Layer
	fixed  int64
	lo, hi int64
	track  int64
	weff   int64
	net    string
}

// runPad extends each run beyond its gcell-center extent so that
// crossings and stubs of shifted partner tracks (bounded by allocSearch)
// stay inside the wire with via-enclosure margin to spare.
const (
	runPad      = 320
	allocSearch = 280
)

// allocator hands out track positions with spacing against everything
// already committed on a layer.
type allocator struct {
	t     *pdk.Tech
	rules *Rules
	obs   map[pdk.Layer][]obsRect
}

type obsRect struct {
	r   geom.Rect
	net string
}

func newAllocator(t *pdk.Tech, rules *Rules) *allocator {
	return &allocator{t: t, rules: rules, obs: map[pdk.Layer][]obsRect{}}
}

func (a *allocator) add(l pdk.Layer, r geom.Rect, net string) {
	a.obs[l] = append(a.obs[l], obsRect{r, net})
}

// wireRect renders a run at a candidate track. The pad beyond the
// run's gcell-center extent snaps outward to the manufacturing grid
// (gcell centers inherit the region origin's parity).
func wireRect(t *pdk.Tech, r *run, track int64) geom.Rect {
	h := r.weff / 2
	lo, hi := evenDown(r.lo-runPad), evenUp(r.hi+runPad)
	if !t.Metals[r.layer].Horizontal {
		return geom.Rect{X0: track - h, Y0: lo, X1: track + h, Y1: hi}
	}
	return geom.Rect{X0: lo, Y0: track - h, X1: hi, Y1: track + h}
}

// alloc picks the nearest conflict-free track to the run's nominal
// line, keeping wire edges on the manufacturing grid. Reports whether
// a clean track was found; the run's track is set either way.
func (a *allocator) alloc(r *run) bool {
	space := a.rules.MinSpace[LayerID(r.layer)]
	// Parity: track - weff/2 must be even so edges land on the grid.
	c0 := r.fixed
	if (c0-r.weff/2)%2 != 0 {
		c0++
	}
	ok := false
	for d := int64(0); d <= allocSearch; d += 2 {
		for _, c := range [2]int64{c0 + d, c0 - d} {
			if a.clean(r, c, space) {
				r.track = c
				ok = true
				break
			}
			if d == 0 {
				break
			}
		}
		if ok {
			break
		}
	}
	if !ok {
		r.track = c0
	}
	a.add(r.layer, wireRect(a.t, r, r.track), r.net)
	return ok
}

func (a *allocator) clean(r *run, track, space int64) bool {
	w := wireRect(a.t, r, track)
	for _, o := range a.obs[r.layer] {
		if o.net == r.net && o.net != "" {
			continue
		}
		gx := max64(w.X0, o.r.X0) - min64(w.X1, o.r.X1)
		gy := max64(w.Y0, o.r.Y0) - min64(w.Y1, o.r.Y1)
		if gx < space && gy < space {
			return false
		}
	}
	return true
}

// snapCutEdge returns the grid-aligned low edge for a via cut
// centered near c.
func snapCutEdge(c, cut int64) int64 {
	lo := c - cut/2
	if ((lo%2)+2)%2 != 0 {
		lo--
	}
	return lo
}

func cutRect(cx, cy, cut int64) geom.Rect {
	x0 := snapCutEdge(cx, cut)
	y0 := snapCutEdge(cy, cut)
	return geom.Rect{X0: x0, Y0: y0, X1: x0 + cut, Y1: y0 + cut}
}

// CheckTop verifies a placed-and-routed assembly: it materializes
// every block and the global routes, then runs the DRC sweep, the
// connectivity extraction, the netlist comparison against the
// benchmark wiring, the schematic device (fin-count) check, and the
// symmetry-pair consistency check.
func CheckTop(t *pdk.Tech, in TopInput, opts Options) *Report {
	rep := &Report{Target: in.Bench.Name + "/top"}
	rules := opts.rules(t)
	cs, minL := route.CellSize, route.MinLayer

	var shapes []Shape
	type pinRec struct {
		block, term string
		net         string     // global net ("" when the terminal is internal)
		col         geom.Rect  // the M3 port column, placement coordinates
		at          geom.Point // the router's pin location (the block center)
		idx         int        // index of the pin shape
	}
	var pins []pinRec
	alloc := newAllocator(t, rules)

	// Materialize and translate every placed block.
	for _, inst := range in.Bench.Insts {
		pos, ok := in.Placement.Pos[inst.Name]
		if !ok {
			continue
		}
		lay := in.Layouts[inst.Name]
		if lay == nil {
			rep.Add(Violation{Rule: RuleDevice, Cell: inst.Name, Msg: "no layout recorded for placed block"})
			continue
		}
		if pos.W() != lay.BBox.W() || pos.H() != lay.BBox.H() {
			rep.Add(Violation{Rule: RuleDevice, Cell: inst.Name,
				Msg: fmt.Sprintf("placed footprint %dx%d differs from layout %dx%d",
					pos.W(), pos.H(), lay.BBox.W(), lay.BBox.H())})
		}
		g, err := MaterializeCell(t, lay)
		if err != nil {
			rep.Add(Violation{Rule: RuleDevice, Cell: inst.Name, Msg: err.Error()})
			continue
		}
		origin := geom.Point{X: pos.X0, Y: pos.Y0}
		relabel := func(net string) string {
			if net == "" {
				return ""
			}
			if gnet, ok := inst.TermNets[net]; ok {
				return circuit.NormalizeNet(gnet)
			}
			return inst.Name + "." + net
		}
		for _, s := range g.Shapes {
			s.Rect = s.Rect.Translate(origin)
			s.Net = relabel(s.Net)
			s.Ref = inst.Name + "." + s.Ref
			if s.Kind == KindPin {
				term := s.Ref[len(inst.Name)+1:]
				net := ""
				if gnet, ok := inst.TermNets[term]; ok {
					net = circuit.NormalizeNet(gnet)
				}
				pins = append(pins, pinRec{block: inst.Name, term: term, net: net,
					col: s.Rect, at: pos.Center(), idx: len(shapes)})
			}
			if s.Layer.IsMetal() && pdk.Layer(s.Layer) >= minL {
				alloc.add(pdk.Layer(s.Layer), s.Rect, s.Net)
			}
			shapes = append(shapes, s)
		}
	}

	// Active nets: routed nets touching at least two placed blocks
	// (what the router actually wired).
	active := map[string]bool{}
	for _, name := range in.Bench.RoutedNets {
		nn := circuit.NormalizeNet(name)
		blocks := map[string]bool{}
		for _, pr := range pins {
			if pr.net == nn {
				blocks[pr.block] = true
			}
		}
		if len(blocks) >= 2 && in.Routing != nil && in.Routing.Nets[nn] != nil {
			active[nn] = true
		}
	}
	activeNets := make([]string, 0, len(active))
	for n := range active {
		activeNets = append(activeNets, n)
	}
	sort.Strings(activeNets)

	// gcell center in placement coordinates, mirroring the router.
	nx := int(in.Region.W()/cs) + 3
	ny := int(in.Region.H()/cs) + 3
	gcenter := func(p geom.Point) geom.Point {
		x := clampInt(int((p.X-in.Region.X0)/cs), 0, nx-1)
		y := clampInt(int((p.Y-in.Region.Y0)/cs), 0, ny-1)
		return geom.Point{X: in.Region.X0 + int64(x)*cs + cs/2, Y: in.Region.Y0 + int64(y)*cs + cs/2}
	}
	vertical := func(l pdk.Layer) bool { return !t.Metals[l].Horizontal }
	lineOf := func(l pdk.Layer, p geom.Point) (fixed, along int64) {
		if vertical(l) {
			return p.X, p.Y
		}
		return p.Y, p.X
	}
	// Build runs per net from the route segments, via points, and pin
	// arrivals.
	runsByNet := map[string][]*run{}
	for _, net := range activeNets {
		nr := in.Routing.Nets[net]
		type lineKey struct {
			l pdk.Layer
			c int64
		}
		iv := map[lineKey][][2]int64{}
		for _, seg := range nr.Segments {
			f1, a1 := lineOf(seg.Layer, seg.From)
			_, a2 := lineOf(seg.Layer, seg.To)
			if a2 < a1 {
				a1, a2 = a2, a1
			}
			k := lineKey{seg.Layer, f1}
			iv[k] = append(iv[k], [2]int64{a1, a2})
		}
		var runs []*run
		for k, list := range iv {
			sort.Slice(list, func(i, j int) bool { return list[i][0] < list[j][0] })
			weff := t.Metals[k.l].Width
			cur := list[0]
			for _, r := range list[1:] {
				if r[0] <= cur[1] {
					if r[1] > cur[1] {
						cur[1] = r[1]
					}
					continue
				}
				runs = append(runs, &run{layer: k.l, fixed: k.c, lo: cur[0], hi: cur[1], weff: weff, net: net})
				cur = r
			}
			runs = append(runs, &run{layer: k.l, fixed: k.c, lo: cur[0], hi: cur[1], weff: weff, net: net})
		}
		ensure := func(l pdk.Layer, p geom.Point) *run {
			f, a := lineOf(l, p)
			for _, r := range runs {
				if r.layer == l && r.fixed == f && r.lo <= a && a <= r.hi {
					return r
				}
			}
			r := &run{layer: l, fixed: f, lo: a, hi: a, weff: t.Metals[l].Width, net: net}
			runs = append(runs, r)
			return r
		}
		for _, vp := range nr.ViaPoints {
			ensure(vp.Lower, vp.At)
			ensure(vp.Lower+1, vp.At)
		}
		for _, pr := range pins {
			if pr.net == net {
				// The router terminates each branch at the block-center
				// gcell on the pin layer; attach there, not at the
				// column's own gcell.
				ensure(minL, gcenter(pr.at))
			}
		}
		// Deterministic allocation order: big layers first, then line.
		sort.Slice(runs, func(i, j int) bool {
			if runs[i].layer != runs[j].layer {
				return runs[i].layer < runs[j].layer
			}
			if runs[i].fixed != runs[j].fixed {
				return runs[i].fixed < runs[j].fixed
			}
			return runs[i].lo < runs[j].lo
		})
		runsByNet[net] = runs
	}

	// Allocate tracks and emit wires.
	for _, net := range activeNets {
		for _, r := range runsByNet[net] {
			if !alloc.alloc(r) {
				rep.Add(Violation{Rule: RuleSpacing, Layer: LayerID(r.layer).Name(t), Nets: []string{net},
					Msg: fmt.Sprintf("no clean track within %dnm of line %d", allocSearch, r.fixed)})
			}
			shapes = append(shapes, Shape{Layer: LayerID(r.layer), Net: net, Ref: "route." + net,
				Rect: wireRect(t, r, r.track)})
		}
	}

	// Via cuts at route layer changes.
	findRun := func(net string, l pdk.Layer, p geom.Point) *run {
		f, a := lineOf(l, p)
		for _, r := range runsByNet[net] {
			if r.layer == l && r.fixed == f && r.lo <= a && a <= r.hi {
				return r
			}
		}
		return nil
	}
	for _, net := range activeNets {
		for _, vp := range in.Routing.Nets[net].ViaPoints {
			rl := findRun(net, vp.Lower, vp.At)
			ru := findRun(net, vp.Lower+1, vp.At)
			if rl == nil || ru == nil {
				rep.Add(Violation{Rule: RuleOpen, Nets: []string{net},
					Msg: fmt.Sprintf("via at %v has no wire on both layers", vp.At)})
				continue
			}
			cx, cy := rl.track, ru.track
			if !vertical(rl.layer) {
				cx, cy = ru.track, rl.track
			}
			shapes = append(shapes, Shape{Layer: ViaLayer(vp.Lower), Net: net,
				Ref: "route." + net, Rect: cutRect(cx, cy, rules.ViaCut)})
		}
	}

	// Pin stubs: tie each terminal column to its net's pin-layer run
	// via a column extension and one horizontal jog.
	jogLayer := minL + 1
	for _, pr := range pins {
		if !active[pr.net] {
			continue
		}
		pt := gcenter(pr.at)
		r3 := findRun(pr.net, minL, pt)
		if r3 == nil {
			rep.Add(Violation{Rule: RuleOpen, Nets: []string{pr.net}, Cell: pr.block,
				Msg: fmt.Sprintf("terminal %s has no pin-layer run", pr.term)})
			continue
		}
		cx := (pr.col.X0 + pr.col.X1) / 2
		if int(jogLayer) >= t.NumLayers() {
			rep.Add(Violation{Rule: RuleOpen, Nets: []string{pr.net}, Cell: pr.block,
				Msg: "no jog layer above the pin layer"})
			continue
		}
		if r3.track == cx {
			// Column sits exactly on the run's track: bridge vertically.
			y0 := evenDown(min64(pr.col.Y0, pt.Y-10))
			y1 := evenUp(max64(pr.col.Y1, pt.Y+10))
			shapes = append(shapes, Shape{Layer: LayerID(minL), Net: pr.net,
				Ref:  pr.block + "." + pr.term + ".stub",
				Rect: geom.Rect{X0: pr.col.X0, Y0: y0, X1: pr.col.X1, Y1: y1}})
			continue
		}
		jm := t.Metals[jogLayer]
		jog := &run{layer: jogLayer, fixed: pt.Y,
			lo: evenDown(min64(cx, r3.track)), hi: evenUp(max64(cx, r3.track)),
			weff: jm.Width, net: pr.net}
		if !alloc.alloc(jog) {
			rep.Add(Violation{Rule: RuleSpacing, Layer: LayerID(jogLayer).Name(t), Cell: pr.block,
				Nets: []string{pr.net}, Msg: fmt.Sprintf("no clean jog track for terminal %s", pr.term)})
		}
		yj := jog.track
		// Column extension on the pin layer up/down to the jog track.
		ext := geom.Rect{X0: pr.col.X0, X1: pr.col.X1,
			Y0: min64(pr.col.Y0, yj-12), Y1: max64(pr.col.Y1, yj+12)}
		stubRef := pr.block + "." + pr.term + ".stub"
		shapes = append(shapes, Shape{Layer: LayerID(minL), Net: pr.net, Ref: stubRef, Rect: ext})
		alloc.add(minL, ext, pr.net)
		// The jog itself (the allocator emitted its padded rect; draw
		// the same rect so geometry and occupancy agree).
		shapes = append(shapes, Shape{Layer: LayerID(jogLayer), Net: pr.net, Ref: stubRef,
			Rect: wireRect(t, jog, yj)})
		// Cuts at both jog ends.
		shapes = append(shapes, Shape{Layer: ViaLayer(minL), Net: pr.net, Ref: stubRef,
			Rect: cutRect(cx, yj, rules.ViaCut)})
		shapes = append(shapes, Shape{Layer: ViaLayer(minL), Net: pr.net, Ref: stubRef,
			Rect: cutRect(r3.track, yj, rules.ViaCut)})
	}

	rep.Shapes = len(shapes)
	rep.Violations = append(rep.Violations, DRC(t, rules, in.Region.Expand(400), shapes, "top")...)
	rep.Violations = append(rep.Violations, checkConnectivity(t, shapes, "top", active)...)

	// Netlist comparison: group terminals by extracted component and
	// compare against the benchmark wiring.
	comps := connComponents(shapes)
	compOfNet := map[string]map[int]bool{}
	netsOfComp := map[int]map[string]bool{}
	for _, pr := range pins {
		if !active[pr.net] {
			continue
		}
		c := comps[pr.idx]
		if compOfNet[pr.net] == nil {
			compOfNet[pr.net] = map[int]bool{}
		}
		compOfNet[pr.net][c] = true
		if netsOfComp[c] == nil {
			netsOfComp[c] = map[string]bool{}
		}
		netsOfComp[c][pr.net] = true
	}
	for _, net := range activeNets {
		if len(compOfNet[net]) > 1 {
			rep.Add(Violation{Rule: RuleNet, Nets: []string{net},
				Msg: fmt.Sprintf("terminals of net split over %d components", len(compOfNet[net]))})
		}
	}
	compIDs := make([]int, 0, len(netsOfComp))
	for c := range netsOfComp {
		compIDs = append(compIDs, c)
	}
	sort.Ints(compIDs)
	for _, c := range compIDs {
		nets := netsOfComp[c]
		if len(nets) < 2 {
			continue
		}
		var labels []string
		for n := range nets {
			labels = append(labels, n)
		}
		sort.Strings(labels)
		rep.Add(Violation{Rule: RuleNet, Nets: labels,
			Msg: fmt.Sprintf("terminals of %d nets merged into one component", len(nets))})
	}

	// Device check: each layout device is the composite standing in for
	// every schematic device listed under it (a csinv's device A is the
	// N+P drive pair, for example), and all devices sharing a composite
	// are same-sized by construction — so the realized fin count of
	// layout device d must equal the fin count of each schematic device
	// it stands for.
	for _, inst := range in.Bench.Insts {
		lay := in.Layouts[inst.Name]
		if lay == nil {
			continue
		}
		realized := map[int]int{}
		for _, u := range lay.Units {
			realized[u.Dev] += lay.Config.NFin * lay.Config.NF
		}
		for dev, names := range [2][]string{inst.DevA, inst.DevB} {
			for _, dn := range names {
				d := in.Bench.Schematic.Device(dn)
				if d == nil {
					rep.Add(Violation{Rule: RuleDevice, Cell: inst.Name,
						Msg: fmt.Sprintf("schematic device %s not found", dn)})
					continue
				}
				want := d.MOS.NFin * d.MOS.NF * d.MOS.M
				if want > 0 && math.Abs(want-float64(realized[dev])) > 0.5 {
					rep.Add(Violation{Rule: RuleDevice, Cell: inst.Name,
						Msg: fmt.Sprintf("layout device %c realizes %d fins, schematic %s has %g",
							'A'+dev, realized[dev], dn, want)})
				}
			}
		}
	}

	rep.Violations = append(rep.Violations, checkSymmetry(in)...)
	return rep
}

// symTol is the residual of the annealer's symmetry penalty that a
// pair of widths wa and wb may keep, in nm (mirror-distance mismatch
// plus y offset): half the pair's mean width, (wa+wb)/4, plus 400.
func symTol(wa, wb int64) int64 { return (wa+wb)/4 + 400 }

// checkSymmetry verifies symmetry pairs ended up mirrored about the
// common vertical axis at matched heights, within symTol — the
// placer treats symmetry as a penalty, so a residual is allowed, but
// a pair parked asymmetrically is an LVS-grade constraint failure.
func checkSymmetry(in TopInput) []Violation {
	type pair struct{ a, b string }
	var pairsList []pair
	for _, inst := range in.Bench.Insts {
		if inst.SymWith == "" {
			continue
		}
		if _, ok := in.Placement.Pos[inst.SymWith]; !ok {
			continue
		}
		if _, ok := in.Placement.Pos[inst.Name]; !ok {
			continue
		}
		pairsList = append(pairsList, pair{inst.SymWith, inst.Name})
	}
	if len(pairsList) == 0 {
		return nil
	}
	axis := 0.0
	for _, p := range pairsList {
		ra := in.Placement.Pos[p.a]
		rb := in.Placement.Pos[p.b]
		axis += float64(ra.Center().X+rb.Center().X) / 2
	}
	axis /= float64(len(pairsList))
	var out []Violation
	for _, p := range pairsList {
		ra := in.Placement.Pos[p.a]
		rb := in.Placement.Pos[p.b]
		da := axis - float64(ra.Center().X)
		db := float64(rb.Center().X) - axis
		err := int64(math.Abs(da-db)) + abs64(ra.Y0-rb.Y0)
		if tol := symTol(ra.W(), rb.W()); err > tol {
			out = append(out, Violation{Rule: RuleSymmetry, Nets: []string{p.a, p.b},
				Msg: fmt.Sprintf("pair %s/%s residual %dnm exceeds tolerance %dnm", p.a, p.b, err, tol)})
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func evenDown(v int64) int64 {
	if ((v%2)+2)%2 != 0 {
		return v - 1
	}
	return v
}

func evenUp(v int64) int64 {
	if ((v%2)+2)%2 != 0 {
		return v + 1
	}
	return v
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
