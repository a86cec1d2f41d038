// Package route is the global router of the flow (Fig. 1): a
// multi-layer grid-graph A* router with layer-preferred directions,
// via costs, and congestion-aware edge pricing. Its job in the
// methodology is to supply, per net, the geometry that primitive port
// optimization consumes: total length per layer and the via count
// (Fig. 6(b) — "the global routes provide information about the wire
// lengths in each layer and via information").
package route

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"primopt/internal/fault"
	"primopt/internal/geom"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// Pin is a net endpoint in placement coordinates.
type Pin struct {
	Block string
	At    geom.Point
}

// NetReq is one net to route.
type NetReq struct {
	Name string
	Pins []Pin
}

// Segment is one routed wire piece on the grid.
type Segment struct {
	Layer    pdk.Layer
	From, To geom.Point // gcell coordinates scaled back to nm
}

// ViaPoint records one layer change of a route: a via stack between
// Lower and Lower+1 at a gcell center. Verification rebuilds the
// concrete via cuts from these.
type ViaPoint struct {
	At    geom.Point
	Lower pdk.Layer
}

// NetStatus classifies one net's routing outcome.
type NetStatus int

const (
	// NetRouted is a cleanly routed net.
	NetRouted NetStatus = iota
	// NetOverflow marks a routed net that uses at least one
	// over-capacity gcell edge.
	NetOverflow
	// NetFailed marks a net left without geometry (search failure or an
	// injected fault).
	NetFailed
)

func (s NetStatus) String() string {
	switch s {
	case NetOverflow:
		return "overflow"
	case NetFailed:
		return "failed"
	}
	return "routed"
}

// NetRoute is the routing result for one net.
type NetRoute struct {
	Name          string
	LengthByLayer map[pdk.Layer]int64 // nm
	Vias          int
	ViaPoints     []ViaPoint
	Segments      []Segment
	// Status classifies the outcome; Err carries the failure text for
	// NetFailed nets.
	Status NetStatus
	Err    string
}

// TotalLength sums over layers.
func (nr *NetRoute) TotalLength() int64 {
	var t int64
	for _, l := range nr.LengthByLayer {
		t += l
	}
	return t
}

// DominantLayer returns the layer carrying the most length (the layer
// reported to port optimization), defaulting to M3.
func (nr *NetRoute) DominantLayer() pdk.Layer {
	best := pdk.Layer(2)
	var bestLen int64 = -1
	for l, ln := range nr.LengthByLayer {
		if ln > bestLen || (ln == bestLen && l < best) {
			best, bestLen = l, ln
		}
	}
	return best
}

// The router has one configuration. CellSize and MinLayer are
// exported because verification rebuilds the same gcell grid from the
// routes; the other values only price the search.
const (
	// CellSize is the gcell edge in nm.
	CellSize int64 = 200
	// MinLayer is the lowest layer global routes may use (M3: M1 and
	// M2 belong to the cells). Every pin lands on it.
	MinLayer pdk.Layer = 2
	// viaCost penalizes a layer change, in gcell-length units.
	viaCost = 4
	// congestionCost scales the per-use edge penalty.
	congestionCost = 2
	// edgeCapacity is the per-gcell-edge wire count above which an
	// edge counts as overflowed.
	edgeCapacity = 2
)

// Result is the full routing outcome.
type Result struct {
	Nets map[string]*NetRoute
	// Usage counts wire occupancy per gcell edge for congestion
	// reporting.
	OverflowEdges int
	// Overflowed and Failed list the nets left with Status NetOverflow
	// / NetFailed (sorted by name), for reporting and verification.
	Overflowed []string
	Failed     []string
}

// node is a 3D grid location.
type node struct {
	x, y int
	l    pdk.Layer
}

type router struct {
	tech     *pdk.Tech
	maxLayer pdk.Layer // the top layer of the stack
	nx, ny   int
	use      map[[5]int]int // edge occupancy: (x, y, l, dx, dy)
	// netEdges tracks each net's committed edges so a failed net's
	// partial branches can be returned to the congestion map and
	// overflow can be traced back to the nets riding it.
	netEdges map[string]map[[5]int]int
	tr       *obs.Trace
	ctx      context.Context
	inj      *fault.Injector
}

// RouteCtx routes all nets within the region (placement bounding box
// plus margin). The A* search polls ctx at bounded intervals, and
// ctx's fault injector arms the route.net site. A net that fails to
// route does not abort the run: it is recorded with Status NetFailed
// so callers decide whether a partial routing is tolerable. Only
// cancellation and structural errors return a non-nil error. The
// route.net spans nest under the span ctx carries (obs.SpanFrom).
func RouteCtx(ctx context.Context, t *pdk.Tech, region geom.Rect, nets []NetReq) (*Result, error) {
	if region.Empty() {
		return nil, fmt.Errorf("route: empty region")
	}
	tr := obs.From(ctx)
	r := &router{
		tech:     t,
		maxLayer: pdk.Layer(t.NumLayers() - 1),
		nx:       int(region.W()/CellSize) + 3,
		ny:       int(region.H()/CellSize) + 3,
		use:      make(map[[5]int]int),
		netEdges: make(map[string]map[[5]int]int),
		tr:       tr,
		ctx:      ctx,
		inj:      fault.From(ctx),
	}
	res := &Result{Nets: make(map[string]*NetRoute, len(nets))}

	// Deterministic order: larger nets first (harder to route), then
	// by name.
	order := append([]NetReq(nil), nets...)
	sort.SliceStable(order, func(i, j int) bool {
		if len(order[i].Pins) != len(order[j].Pins) {
			return len(order[i].Pins) > len(order[j].Pins)
		}
		return order[i].Name < order[j].Name
	})

	for _, net := range order {
		if len(net.Pins) < 2 {
			res.Nets[net.Name] = &NetRoute{Name: net.Name, LengthByLayer: map[pdk.Layer]int64{}}
			continue
		}
		if err := r.routeOne(region, net, res); err != nil {
			return nil, err
		}
	}

	overflow := r.overflowEdges()
	res.OverflowEdges = len(overflow)
	for name, nr := range res.Nets {
		switch {
		case nr.Status == NetFailed:
			res.Failed = append(res.Failed, name)
		case r.touchesOverflow(name, overflow):
			nr.Status = NetOverflow
			res.Overflowed = append(res.Overflowed, name)
		}
	}
	sort.Strings(res.Failed)
	sort.Strings(res.Overflowed)
	if n := len(res.Failed); n > 0 {
		tr.Counter("route.nets_failed").Add(int64(n))
	}
	if n := len(res.Overflowed); n > 0 {
		tr.Counter("route.overflow_nets").Add(int64(n))
	}
	tr.Gauge("route.overflow_edges").Set(float64(res.OverflowEdges))
	return res, nil
}

// routeOne routes a single net under a route.net span, converting a
// routing failure into a NetFailed entry (cancellation still aborts).
func (r *router) routeOne(region geom.Rect, net NetReq, res *Result) error {
	tr := r.tr
	sp := obs.StartSpan(tr, obs.SpanFrom(r.ctx), "route.net")
	sp.SetAttr("net", net.Name)
	sp.SetAttr("pins", len(net.Pins))
	nr, err := r.routeNetOnce(region, net)
	if err != nil {
		// Partial branches may be committed; return their occupancy.
		r.ripup(net.Name)
		if cerr := r.ctx.Err(); cerr != nil {
			sp.End()
			return cerr
		}
		tr.Counter("route.failures").Inc()
		sp.SetAttr("error", err.Error())
		sp.End()
		res.Nets[net.Name] = &NetRoute{
			Name: net.Name, LengthByLayer: map[pdk.Layer]int64{},
			Status: NetFailed, Err: err.Error(),
		}
		return nil
	}
	if tr.Enabled() {
		sp.SetAttr("length_nm", nr.TotalLength())
		sp.SetAttr("vias", nr.Vias)
		tr.Counter("route.nets_routed").Inc()
		tr.Counter("route.vias").Add(int64(nr.Vias))
		tr.Histogram("route.net.length_nm").Observe(float64(nr.TotalLength()))
	}
	sp.End()
	res.Nets[net.Name] = nr
	return nil
}

// routeNetOnce arms the route.net fault site in front of one routing
// attempt.
func (r *router) routeNetOnce(region geom.Rect, net NetReq) (*NetRoute, error) {
	if err := r.inj.Hit(r.ctx, fault.SiteRouteNet); err != nil {
		return nil, fmt.Errorf("route: net %s: %w", net.Name, err)
	}
	return r.routeNet(region, net)
}

// overflowEdges returns the set of gcell edges over capacity.
func (r *router) overflowEdges() map[[5]int]bool {
	out := make(map[[5]int]bool)
	for k, n := range r.use {
		if n > edgeCapacity {
			out[k] = true
		}
	}
	return out
}

// touchesOverflow reports whether a net occupies any overflowed edge.
func (r *router) touchesOverflow(name string, overflow map[[5]int]bool) bool {
	for k := range r.netEdges[name] {
		if overflow[k] {
			return true
		}
	}
	return false
}

// ripup removes a net's committed occupancy from the congestion map.
func (r *router) ripup(name string) {
	for k, n := range r.netEdges[name] {
		if r.use[k] -= n; r.use[k] <= 0 {
			delete(r.use, k)
		}
	}
	delete(r.netEdges, name)
}

// gcell maps placement coordinates to grid coordinates.
func (r *router) gcell(region geom.Rect, pt geom.Point) (int, int) {
	x := int((pt.X - region.X0) / CellSize)
	y := int((pt.Y - region.Y0) / CellSize)
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= r.nx {
		x = r.nx - 1
	}
	if y >= r.ny {
		y = r.ny - 1
	}
	return x, y
}

// routeNet routes a multi-pin net by sequential nearest-source A*
// (each pin connects to the growing routed tree — the Steiner
// decomposition the paper assumes, with all branches later sharing
// the net's parallel-wire count).
func (r *router) routeNet(region geom.Rect, net NetReq) (*NetRoute, error) {
	nr := &NetRoute{Name: net.Name, LengthByLayer: map[pdk.Layer]int64{}}
	// Tree starts at pin 0 (entered at MinLayer).
	x0, y0 := r.gcell(region, net.Pins[0].At)
	tree := map[node]bool{{x0, y0, MinLayer}: true}

	// Connect remaining pins in nearest-first order.
	remaining := append([]Pin(nil), net.Pins[1:]...)
	for len(remaining) > 0 {
		// Pick the unconnected pin closest to the tree (cheap
		// heuristic on gcell Manhattan distance).
		bestI, bestD := 0, int(1<<30)
		for i, pin := range remaining {
			px, py := r.gcell(region, pin.At)
			for tn := range tree {
				d := abs(px-tn.x) + abs(py-tn.y)
				if d < bestD {
					bestD = d
					bestI = i
				}
			}
		}
		pin := remaining[bestI]
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
		path, err := r.astar(tree, region, pin)
		if err != nil {
			return nil, fmt.Errorf("route: net %s pin %s: %w", net.Name, pin.Block, err)
		}
		r.commit(nr, path, region)
		for _, n := range path {
			tree[n] = true
		}
	}
	return nr, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// less is the stable node order used for deterministic tie-breaking:
// layer, then row, then column.
func (n node) less(m node) bool {
	if n.l != m.l {
		return n.l < m.l
	}
	if n.y != m.y {
		return n.y < m.y
	}
	return n.x < m.x
}

// pq is the A* priority queue. Ties on f are broken on the stable
// node order, never on heap insertion order, so equal-cost paths are
// chosen identically run after run.
type pqItem struct {
	n    node
	f, g float64
}
type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].n.less(q[j].n)
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// astar searches from the existing tree to the pin's gcell. The goal
// must be reached at MinLayer — pins are cell port columns on the
// lowest routing layer, so every branch ends with a well-defined
// pin-layer landing. Wrong-direction edges cost extra; vias cost
// viaCost; congested edges cost more.
func (r *router) astar(tree map[node]bool, region geom.Rect, pin Pin) ([]node, error) {
	tx, ty := r.gcell(region, pin.At)
	open := &pq{}
	gScore := map[node]float64{}
	parent := map[node]node{}
	// Seed the open set in sorted node order — ranging over the tree
	// map here once let Go's randomized map iteration pick between
	// equal-cost paths, flipping the congestion map (and every
	// downstream port-optimization input) between runs.
	seeds := make([]node, 0, len(tree))
	for tn := range tree {
		seeds = append(seeds, tn)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].less(seeds[j]) })
	for _, tn := range seeds {
		gScore[tn] = 0
		heap.Push(open, pqItem{n: tn, g: 0, f: float64(abs(tn.x-tx) + abs(tn.y-ty))})
	}
	var goal node
	found := false
	expansions := int64(0)
	for open.Len() > 0 {
		// Bounded cancellation latency without a per-expansion branch
		// on the syscall-free hot path.
		if expansions&511 == 0 {
			if err := r.ctx.Err(); err != nil {
				r.tr.Counter("route.astar.expansions").Add(expansions)
				return nil, err
			}
		}
		expansions++
		cur := heap.Pop(open).(pqItem)
		if g, ok := gScore[cur.n]; ok && cur.g > g {
			continue
		}
		if cur.n.x == tx && cur.n.y == ty && cur.n.l == MinLayer {
			goal = cur.n
			found = true
			break
		}
		for _, nb := range r.neighbors(cur.n) {
			ng := cur.g + r.edgeCost(cur.n, nb.n)
			if old, ok := gScore[nb.n]; !ok || ng < old {
				gScore[nb.n] = ng
				parent[nb.n] = cur.n
				h := float64(abs(nb.n.x-tx) + abs(nb.n.y-ty))
				heap.Push(open, pqItem{n: nb.n, g: ng, f: ng + h})
			}
		}
	}
	r.tr.Counter("route.astar.expansions").Add(expansions)
	if !found {
		return nil, fmt.Errorf("no path to (%d, %d)", tx, ty)
	}
	// Reconstruct until we re-enter the tree.
	var path []node
	for n := goal; ; {
		path = append(path, n)
		if tree[n] {
			break
		}
		p, ok := parent[n]
		if !ok {
			break
		}
		n = p
	}
	return path, nil
}

type neighbor struct{ n node }

// neighbors enumerates legal moves: planar steps in the layer's
// preferred direction, and vias up/down.
func (r *router) neighbors(n node) []neighbor {
	out := make([]neighbor, 0, 4)
	horizontal := r.tech.Metals[n.l].Horizontal
	if horizontal {
		if n.x > 0 {
			out = append(out, neighbor{node{n.x - 1, n.y, n.l}})
		}
		if n.x < r.nx-1 {
			out = append(out, neighbor{node{n.x + 1, n.y, n.l}})
		}
	} else {
		if n.y > 0 {
			out = append(out, neighbor{node{n.x, n.y - 1, n.l}})
		}
		if n.y < r.ny-1 {
			out = append(out, neighbor{node{n.x, n.y + 1, n.l}})
		}
	}
	if n.l > MinLayer {
		out = append(out, neighbor{node{n.x, n.y, n.l - 1}})
	}
	if n.l < r.maxLayer {
		out = append(out, neighbor{node{n.x, n.y, n.l + 1}})
	}
	return out
}

// edgeCost prices one move.
func (r *router) edgeCost(a, b node) float64 {
	if a.l != b.l {
		return viaCost
	}
	c := 1.0
	key := edgeKey(a, b)
	c += congestionCost * float64(r.use[key])
	return c
}

func edgeKey(a, b node) [5]int {
	// Canonical: lower endpoint first.
	if b.x < a.x || b.y < a.y {
		a, b = b, a
	}
	return [5]int{a.x, a.y, int(a.l), b.x - a.x, b.y - a.y}
}

// commit records a path into the net route and congestion map.
func (r *router) commit(nr *NetRoute, path []node, region geom.Rect) {
	cs := CellSize
	toPt := func(n node) geom.Point {
		return geom.Point{X: region.X0 + int64(n.x)*cs + cs/2, Y: region.Y0 + int64(n.y)*cs + cs/2}
	}
	for i := 1; i < len(path); i++ {
		a, b := path[i], path[i-1]
		if a.l != b.l {
			nr.Vias++
			lower := a.l
			if b.l < lower {
				lower = b.l
			}
			nr.ViaPoints = append(nr.ViaPoints, ViaPoint{At: toPt(a), Lower: lower})
			continue
		}
		nr.LengthByLayer[a.l] += cs
		key := edgeKey(a, b)
		r.use[key]++
		ne := r.netEdges[nr.Name]
		if ne == nil {
			ne = make(map[[5]int]int)
			r.netEdges[nr.Name] = ne
		}
		ne[key]++
		nr.Segments = append(nr.Segments, Segment{Layer: a.l, From: toPt(a), To: toPt(b)})
	}
}
