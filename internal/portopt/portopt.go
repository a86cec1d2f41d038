// Package portopt implements Algorithm 2 of the paper: primitive port
// optimization. After placement and global routing, each primitive
// knows the geometry of the external routes at its ports (length,
// layer, vias). Step 1 sweeps the number of parallel routes per port
// and derives an interval constraint [wmin, wmax] over which the
// primitive's cost is optimized (wmin at the point of maximum
// curvature, wmax where cost turns upward — or unbounded). Step 2
// reconciles the constraints of all primitives sharing a net: if the
// intervals overlap, the smallest count in the overlap (max of the
// wmins) is chosen for low congestion; if they are disjoint, the gap
// interval is re-simulated and the count minimizing the summed cost
// wins. The chosen counts become requirements for the detailed
// router.
package portopt

import (
	"context"
	"fmt"
	"math"
	"sort"

	"primopt/internal/cellgen"
	"primopt/internal/cost"
	"primopt/internal/evcache"
	"primopt/internal/extract"
	"primopt/internal/numeric"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// Unbounded marks a constraint with no upper limit observed in the
// swept range.
const Unbounded = -1

// PrimInstance is one placed primitive with its global-route context.
type PrimInstance struct {
	Name    string
	Entry   *primlib.Entry
	Sizing  primlib.Sizing
	Bias    primlib.Bias
	Ex      *extract.Extracted
	Metrics []cost.Metric
	// Routes gives the global-route geometry per port wire key
	// (NWires is overridden during sweeps).
	Routes map[string]extract.Route
	// NetOf maps each routed port wire key to the circuit net name it
	// belongs to.
	NetOf map[string]string
	// SymGroups lists wire keys whose routes must stay symmetric
	// (from the entry's SymPorts): sweeping a net that touches one
	// member applies the same parallel count to the whole group.
	SymGroups [][]string
}

// Constraint is one primitive's requirement on one net.
type Constraint struct {
	Prim  string
	Net   string
	WMin  int
	WMax  int // Unbounded when cost kept improving
	Curve []float64
}

// Params bounds the sweeps.
type Params struct {
	MaxWires int     // sweep range per port (default 8)
	Tol      float64 // relative tolerance for the wmax cutoff (default 0.01)
	// Cache, when set, memoizes the route-override evaluations. The
	// sweep and the reconcile gap search revisit (layout, routes)
	// snapshots — and with a disk tier a repeat run revisits all of
	// them — so the cost evaluations route through the same
	// content-addressed cache the optimizer uses.
	Cache *evcache.Cache
}

func (p Params) withDefaults() Params {
	if p.MaxWires <= 0 {
		p.MaxWires = 8
	}
	if p.Tol <= 0 {
		p.Tol = 0.01
	}
	return p
}

// Result is the outcome of Algorithm 2.
type Result struct {
	Constraints []Constraint
	// Wires is the reconciled parallel-route count per net.
	Wires map[string]int
	Sims  int
}

// routesWith returns a copy of pi.Routes with the route of one net
// set to n parallel wires (every port of pi on that net), extending
// the override across symmetric port groups so differential routes
// stay matched (the paper's symmetric-routing constraint — without
// it, single-sided sweeps would manufacture input offset).
func routesWith(pi *PrimInstance, net string, n int) map[string]extract.Route {
	affected := map[string]bool{}
	for w := range pi.Routes {
		if pi.NetOf[w] == net {
			affected[w] = true
		}
	}
	for _, group := range pi.SymGroups {
		hit := false
		for _, w := range group {
			if affected[w] {
				hit = true
				break
			}
		}
		if hit {
			for _, w := range group {
				if _, ok := pi.Routes[w]; ok {
					affected[w] = true
				}
			}
		}
	}
	out := make(map[string]extract.Route, len(pi.Routes))
	for w, r := range pi.Routes {
		if affected[w] {
			r.NWires = n
		}
		out[w] = r
	}
	return out
}

// costAt evaluates a primitive's cost with the given route override,
// through the cache when one is installed. Cached entries carry only
// the Eval. pi.Ex may itself be a shared cache entry's extraction:
// costAt only reads it, for the key and the testbenches, and the
// override lives in a fresh routes map. Every request is booked via
// RecordRequest so the trace-wide
// evcache.hits == optimize.repeat_evals invariant survives portopt
// joining the cache's consumers. pdkFP is t.Fingerprint(), computed
// once by the calling step. The evaluation runs on ctx.
func costAt(ctx context.Context, t *pdk.Tech, pdkFP string, pi *PrimInstance, net string, n int, p Params) (float64, int, error) {
	tr := obs.From(ctx)
	tr.Counter("portopt.evals").Inc()
	routes := routesWith(pi, net, n)
	var ev *primlib.Eval
	if p.Cache != nil {
		var lay *cellgen.Layout
		if pi.Ex != nil {
			lay = pi.Ex.Layout
		}
		key := evcache.Key(pdkFP, pi.Entry, pi.Sizing, pi.Bias, lay, routes)
		p.Cache.RecordRequest(tr, key)
		ent, err := p.Cache.DoCtx(ctx, key, func() (*evcache.Entry, error) {
			e, err := pi.Entry.EvaluateCtx(ctx, t, pi.Sizing, pi.Bias, pi.Ex, routes)
			if err != nil {
				return nil, err
			}
			return &evcache.Entry{Eval: e}, nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("portopt: %s on %s (n=%d): %w", pi.Name, net, n, err)
		}
		ev = ent.Eval
	} else {
		var err error
		ev, err = pi.Entry.EvaluateCtx(ctx, t, pi.Sizing, pi.Bias, pi.Ex, routes)
		if err != nil {
			return 0, 0, fmt.Errorf("portopt: %s on %s (n=%d): %w", pi.Name, net, n, err)
		}
	}
	c, _, err := primlib.Cost(pi.Metrics, ev)
	if err != nil {
		return 0, 0, err
	}
	return c, ev.Sims, nil
}

// GenerateConstraints runs step 1 for one primitive: an interval per
// routed net.
func GenerateConstraints(ctx context.Context, t *pdk.Tech, pi *PrimInstance, p Params) ([]Constraint, int, error) {
	p = p.withDefaults()
	// Collect the nets this primitive constrains, deterministically.
	netSet := map[string]bool{}
	for w := range pi.Routes {
		net, ok := pi.NetOf[w]
		if !ok {
			return nil, 0, fmt.Errorf("portopt: %s: route on %q has no net", pi.Name, w)
		}
		netSet[net] = true
	}
	nets := make([]string, 0, len(netSet))
	for n := range netSet {
		nets = append(nets, n)
	}
	sort.Strings(nets)

	pdkFP := t.Fingerprint()
	sims := 0
	var out []Constraint
	for _, net := range nets {
		curve := make([]float64, 0, p.MaxWires)
		for n := 1; n <= p.MaxWires; n++ {
			c, s, err := costAt(ctx, t, pdkFP, pi, net, n, p)
			if err != nil {
				return nil, sims, err
			}
			sims += s
			curve = append(curve, c)
		}
		con := intervalFromCurve(curve, p.Tol)
		con.Prim = pi.Name
		con.Net = net
		out = append(out, con)
	}
	return out, sims, nil
}

// intervalFromCurve derives [wmin, wmax] from a cost-vs-wires curve
// (1-based wire counts).
func intervalFromCurve(curve []float64, tol float64) Constraint {
	con := Constraint{Curve: curve, WMin: 1, WMax: Unbounded}
	if len(curve) == 0 {
		return con
	}
	minIdx, minV := numeric.ArgMin(curve)
	// wmin: the smallest count already within a small tolerance of
	// the best achievable cost (the knee of the descent).
	const wminTol = 0.02
	if numeric.IsMonotoneDecreasing(curve, 1e-9) {
		// Cost keeps improving: knee lower bound, no upper bound.
		con.WMin = numeric.WithinOfMinIndex(curve, wminTol) + 1
		con.WMax = Unbounded
		return con
	}
	con.WMin = numeric.WithinOfMinIndex(curve[:minIdx+1], wminTol) + 1
	wmax := minIdx
	for i := minIdx + 1; i < len(curve); i++ {
		if curve[i] <= minV*(1+tol) {
			wmax = i
		} else {
			break
		}
	}
	con.WMax = wmax + 1
	return con
}

// Reconcile runs step 2 over all primitives: group constraints by
// net, intersect where possible, and re-simulate the gap interval
// where not.
func Reconcile(ctx context.Context, t *pdk.Tech, prims []*PrimInstance, cons []Constraint, p Params) (map[string]int, int, error) {
	p = p.withDefaults()
	byNet := map[string][]Constraint{}
	for _, c := range cons {
		byNet[c.Net] = append(byNet[c.Net], c)
	}
	primByName := map[string]*PrimInstance{}
	for _, pi := range prims {
		primByName[pi.Name] = pi
	}
	nets := make([]string, 0, len(byNet))
	for n := range byNet {
		nets = append(nets, n)
	}
	sort.Strings(nets)

	pdkFP := t.Fingerprint()
	out := make(map[string]int, len(nets))
	sims := 0
	for _, net := range nets {
		group := byNet[net]
		maxWMin := 1
		minWMax := math.MaxInt32
		for _, c := range group {
			if c.WMin > maxWMin {
				maxWMin = c.WMin
			}
			if c.WMax != Unbounded && c.WMax < minWMax {
				minWMax = c.WMax
			}
		}
		if maxWMin <= minWMax {
			// Lines 10–11: overlapping intervals — the smallest count
			// satisfying all lower bounds minimizes congestion.
			out[net] = maxWMin
			continue
		}
		// Lines 12–14: disjoint — search [min(wmax), max(wmin)] for
		// the count minimizing the total cost of the primitives on
		// this net.
		obs.From(ctx).Counter("portopt.gap_nets").Inc()
		lo, hi := minWMax, maxWMin
		bestN, bestCost := lo, math.Inf(1)
		for n := lo; n <= hi; n++ {
			total := 0.0
			for _, c := range group {
				pi, ok := primByName[c.Prim]
				if !ok {
					return nil, sims, fmt.Errorf("portopt: unknown primitive %q in constraint", c.Prim)
				}
				cv, s, err := costAt(ctx, t, pdkFP, pi, net, n, p)
				if err != nil {
					return nil, sims, err
				}
				sims += s
				total += cv
			}
			if total < bestCost {
				bestCost = total
				bestN = n
			}
		}
		out[net] = bestN
	}
	return out, sims, nil
}

// Optimize runs both steps for a set of placed primitives. Every
// evaluation runs on ctx: it honors the deadline, cancellation and
// fault injector, and reports to the trace the context carries. The
// portopt.constraints and portopt.reconcile spans nest under the span
// ctx carries (obs.SpanFrom).
func Optimize(ctx context.Context, t *pdk.Tech, prims []*PrimInstance, p Params) (*Result, error) {
	p = p.withDefaults()
	tr := obs.From(ctx)
	res := &Result{Wires: map[string]int{}}
	for _, pi := range prims {
		sp := obs.StartSpan(tr, obs.SpanFrom(ctx), "portopt.constraints")
		sp.SetAttr("prim", pi.Name)
		cons, sims, err := GenerateConstraints(ctx, t, pi, p)
		res.Sims += sims
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetAttr("constraints", len(cons))
		sp.SetAttr("sims", sims)
		sp.End()
		res.Constraints = append(res.Constraints, cons...)
	}
	sp := obs.StartSpan(tr, obs.SpanFrom(ctx), "portopt.reconcile")
	wires, sims, err := Reconcile(ctx, t, prims, res.Constraints, p)
	res.Sims += sims
	if err != nil {
		sp.End()
		return nil, err
	}
	res.Wires = wires
	if tr.Enabled() {
		sp.SetAttr("nets", len(wires))
		sp.SetAttr("sims", sims)
		tr.Counter("portopt.sims").Add(int64(res.Sims))
	}
	sp.End()
	return res, nil
}
