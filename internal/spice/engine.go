// Package spice implements the circuit simulator that powers every
// optimization step in the paper: modified nodal analysis (MNA) with a
// damped-Newton DC operating point (with gmin and source stepping),
// complex small-signal AC sweeps, and a trapezoidal transient engine
// with sub-stepping on nonconvergence. The operating point and every
// transient step run one Newton iteration (newton.go) over the part of
// the MNA equations that does not depend on the iterate: the
// time-invariant stamp and the sources, scaled for DC, at t+h and with
// the trapezoidal companions for a step. Each iteration stamps the
// transistors on top. Run solves a Deck — netlist, analyses and
// .measure statements — which is the form the primitive testbenches
// take, as in the paper (Section II-B); they build theirs in memory.
// ParseDeck reads a deck from SPICE-subset text.
//
// Matrices are stamped dense. Each engine computes once the
// structural pattern of its real MNA matrices and gives it to the LU
// workspaces of its operating-point and transient solves, which
// refactor and solve large sparse systems (the post-layout RO-VCO)
// along that pattern. The operating point factors in the matrix's own
// order with partial pivoting, bit-identically to the dense loops;
// the transient factors in a fill-reducing minimum-degree order with
// diagonal-preferring threshold pivoting (numeric.NewOrderedWorkspace).
// Matrices under 64 unknowns, every primitive testbench among them,
// stay on the dense loops with partial pivoting. AC analysis is dense
// throughout.
package spice

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strings"

	"primopt/internal/circuit"
	"primopt/internal/device"
	"primopt/internal/fault"
	"primopt/internal/numeric"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// Engine holds the MNA structure for one netlist: the node and branch
// unknown assignment and the circuit compiled for the analyses.
type Engine struct {
	Tech *pdk.Tech
	NL   *circuit.Netlist

	// ctx is polled by the Newton and transient inner loops so a
	// deadline or cancellation aborts a stuck solve promptly. inj and
	// tr are the run's fault injector and trace, resolved from ctx
	// once at construction so the hot loops pay one nil check per
	// hit or count, not a context lookup.
	ctx context.Context
	inj *fault.Injector
	tr  *obs.Trace

	nodeNames []string // unknown index -> net, the sorted nets without ground
	numNodes  int
	n         int // total unknowns

	// The linear elements, compiled by New in netlist order per kind:
	// unknowns resolved and values read once, so no analysis touches a
	// device or a net name.
	res  []twoTerm // v = 1/r
	caps []twoTerm // v = C
	inds []inductor
	vsrc []source
	isrc []source
	vcvs []controlled
	vccs []controlled

	mos     []*circuit.Device
	mosCtx  []device.EvalContext
	mosNode [][4]int // precomputed node indices (d, g, s, b)

	// mosState holds the device states from the most recent
	// stampMOSDC pass. After a converged Newton loop these are the
	// states at the accepted bias (to within the convergence
	// tolerance), letting the transient cap refresh skip a full
	// device re-evaluation per step.
	mosState []device.MOSState

	// base is the time-invariant part of every real MNA matrix the
	// engine builds: the stamps of the resistors, the source, VCVS and
	// inductor branch couplings, and the VCCS. pat is the structural
	// pattern of those matrices. One walk (walkBase) builds both.
	base *numeric.Matrix
	pat  *numeric.Pattern

	dc     *newtonSystem      // the operating point's Newton system, built on first use
	tranWS *numeric.Workspace // transient LU workspace (see tranWorkspace)
	work   TranWork           // what the engine's transient runs did

	// factorHook, when set, sees every real matrix the engine hands to
	// an LU workspace. Tests use it to check pattern coverage.
	factorHook func(*numeric.Matrix)
}

// twoTerm is a compiled resistor or capacitor between unknowns a and
// b (-1 is ground) with value v.
type twoTerm struct {
	a, b int
	v    float64
}

// inductor is a compiled inductor: nodes p and q, branch unknown br
// and inductance l.
type inductor struct {
	name     string
	p, q, br int
	l        float64
}

// source is a compiled independent source between nodes p and q: a
// voltage source's branch unknown br (unused for a current source),
// its DC value, its transient wave (nil for DC only) and its AC
// phasor.
type source struct {
	name     string
	p, q, br int
	dc       float64
	wave     *circuit.SourceWave
	ac       complex128
}

// controlled is a compiled controlled source with output nodes p and
// q, controlling nodes cp and cn and gain: a VCVS with branch unknown
// br, or a VCCS (br unused).
type controlled struct {
	name             string
	p, q, cp, cn, br int
	gain             float64
}

// New compiles nl under technology t, bound to ctx: inner solver loops
// poll it for cancellation, and the engine reports to the context's
// trace and honors its fault injector. Element values are read from
// nl here once; later changes to its devices do not reach the engine.
// A value that is not finite is an error. The engine is not
// concurrency-safe.
//
// The unknowns are the nodes, numbered in sorted net order (the order
// is the pivot order, which sets every result's rounding), then the
// branch currents of the voltage sources, VCVS and inductors in
// netlist order.
func New(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (*Engine, error) {
	e := &Engine{
		Tech: t,
		NL:   nl,
		ctx:  ctx,
		inj:  fault.From(ctx),
		tr:   obs.From(ctx),
	}
	e.nodeNames = nl.Nets()
	if i, ok := slices.BinarySearch(e.nodeNames, "0"); ok {
		e.nodeNames = slices.Delete(e.nodeNames, i, i+1)
	}
	e.numNodes = len(e.nodeNames)

	var counts [circuit.VCCS + 1]int
	for _, d := range nl.Devices {
		if d.Type >= 0 && int(d.Type) < len(counts) {
			counts[d.Type]++
		}
	}
	nmos := counts[circuit.NMOS] + counts[circuit.PMOS]
	e.mos = make([]*circuit.Device, 0, nmos)
	e.mosCtx = make([]device.EvalContext, 0, nmos)
	e.mosNode = make([][4]int, 0, nmos)
	e.res = make([]twoTerm, 0, counts[circuit.Resistor])
	e.caps = make([]twoTerm, 0, counts[circuit.Capacitor])
	e.inds = make([]inductor, 0, counts[circuit.Inductor])
	e.vsrc = make([]source, 0, counts[circuit.VSource])
	e.isrc = make([]source, 0, counts[circuit.ISource])
	e.vcvs = make([]controlled, 0, counts[circuit.VCVS])
	e.vccs = make([]controlled, 0, counts[circuit.VCCS])

	nextBranch := e.numNodes
	branch := func() int {
		nextBranch++
		return nextBranch - 1
	}
	for _, d := range nl.Devices {
		if err := checkFinite(d); err != nil {
			return nil, err
		}
		var nodes [4]int
		for i, net := range d.Nets {
			n, ok := e.node(net)
			if !ok {
				return nil, fmt.Errorf("spice: net %q of %s is not in netlist %s's net set", net, d.Name, nl.Name)
			}
			nodes[i] = n
		}
		p, q, cp, cn := nodes[0], nodes[1], nodes[2], nodes[3]
		switch d.Type {
		case circuit.NMOS, circuit.PMOS:
			e.mos = append(e.mos, d)
			e.mosCtx = append(e.mosCtx, device.NewContext(t, d))
			e.mosNode = append(e.mosNode, nodes)
		case circuit.Resistor:
			if d.Value <= 0 {
				return nil, fmt.Errorf("spice: resistor %s has non-positive value", d.Name)
			}
			e.res = append(e.res, twoTerm{p, q, 1 / d.Value})
		case circuit.Capacitor:
			if d.Value < 0 {
				return nil, fmt.Errorf("spice: capacitor %s has negative value", d.Name)
			}
			e.caps = append(e.caps, twoTerm{p, q, d.Value})
		case circuit.Inductor:
			if d.Value <= 0 {
				return nil, fmt.Errorf("spice: inductor %s has non-positive value", d.Name)
			}
			e.inds = append(e.inds, inductor{d.Name, p, q, branch(), d.Value})
		case circuit.VSource, circuit.ISource:
			s := source{name: d.Name, p: p, q: q, br: -1, dc: d.DC, wave: d.Wave,
				ac: cmplx.Rect(d.ACMag, d.ACPhase*math.Pi/180)}
			if d.Type == circuit.VSource {
				s.br = branch()
				e.vsrc = append(e.vsrc, s)
			} else {
				e.isrc = append(e.isrc, s)
			}
		case circuit.VCVS:
			e.vcvs = append(e.vcvs, controlled{d.Name, p, q, cp, cn, branch(), d.Value})
		case circuit.VCCS:
			e.vccs = append(e.vccs, controlled{d.Name, p, q, cp, cn, -1, d.Value})
		default:
			return nil, fmt.Errorf("spice: unsupported device type %v (%s)", d.Type, d.Name)
		}
	}
	e.n = nextBranch
	if e.n == 0 {
		return nil, fmt.Errorf("spice: empty circuit %s", nl.Name)
	}
	e.mosState = make([]device.MOSState, len(e.mos))

	// The time-invariant stamp and the pattern come from one walk. The
	// pattern adds the positions the analyses stamp on top of base:
	// capacitor couplings, each MOS's full block over its four
	// terminals (its conductances, gmin shunts and five capacitances)
	// and the diagonal, which a PatternBuilder always includes.
	e.base = numeric.NewMatrix(e.n)
	b := numeric.NewPatternBuilder(e.n)
	e.walkBase(func(i, j int, v float64) {
		e.base.Add(i, j, v)
		b.Add(i, j)
	})
	for _, c := range e.caps {
		b.Add(c.a, c.a)
		b.Add(c.b, c.b)
		b.Add(c.a, c.b)
		b.Add(c.b, c.a)
	}
	for _, nodes := range e.mosNode {
		for _, i := range nodes {
			for _, j := range nodes {
				b.Add(i, j)
			}
		}
	}
	e.pat = b.Build()
	return e, nil
}

// checkFinite returns an error naming d and the first of its values,
// its wave's included, that is NaN or infinite.
func checkFinite(d *circuit.Device) error {
	var buf [10]circuit.KeyValue
	for _, kv := range d.AppendValues(buf[:0]) {
		if math.IsNaN(kv.Val) || math.IsInf(kv.Val, 0) {
			return fmt.Errorf("spice: %v %s: %s = %g is not finite", d.Type, d.Name, kv.Key, kv.Val)
		}
	}
	if w := d.Wave; w != nil {
		for _, list := range [][]float64{w.Args, w.Times, w.Vals} {
			for _, v := range list {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("spice: %v %s: %s value %g is not finite", d.Type, d.Name, w.Kind, v)
				}
			}
		}
	}
	return nil
}

// walkBase calls add for every term of the time-invariant real stamp,
// skipping ground: resistors, then the voltage-source, VCVS and
// inductor branch couplings, then VCCS. Only resistors and VCCS share
// cells, and a cell's sum rounds by the order of its terms, so this
// order is part of every result's bits.
func (e *Engine) walkBase(add func(i, j int, v float64)) {
	stamp := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			add(i, j, v)
		}
	}
	couple := func(br, p, q int) {
		stamp(p, br, 1)
		stamp(q, br, -1)
		stamp(br, p, 1)
		stamp(br, q, -1)
	}
	for _, r := range e.res {
		stamp(r.a, r.a, r.v)
		stamp(r.b, r.b, r.v)
		stamp(r.a, r.b, -r.v)
		stamp(r.b, r.a, -r.v)
	}
	for _, s := range e.vsrc {
		couple(s.br, s.p, s.q)
	}
	for _, c := range e.vcvs {
		couple(c.br, c.p, c.q)
		stamp(c.br, c.cp, -c.gain)
		stamp(c.br, c.cn, c.gain)
	}
	for _, l := range e.inds {
		couple(l.br, l.p, l.q)
	}
	for _, c := range e.vccs {
		stamp(c.p, c.cp, c.gain)
		stamp(c.p, c.cn, -c.gain)
		stamp(c.q, c.cp, -c.gain)
		stamp(c.q, c.cn, c.gain)
	}
}

// addSources adds each independent source's value, as value gives
// it, to rhs: a voltage source's onto its branch row, a current
// source's out of its + node and into its − node (it flows from p
// through the source to q).
func addSources[T float64 | complex128](e *Engine, rhs []T, value func(*source) T) {
	for i := range e.vsrc {
		s := &e.vsrc[i]
		rhs[s.br] += value(s)
	}
	for i := range e.isrc {
		s := &e.isrc[i]
		v := value(s)
		if s.p >= 0 {
			rhs[s.p] -= v
		}
		if s.q >= 0 {
			rhs[s.q] += v
		}
	}
}

// sourceNamed returns the independent source named name
// (case-insensitive), voltage sources first, or nil.
func (e *Engine) sourceNamed(name string) *source {
	for _, list := range [][]source{e.vsrc, e.isrc} {
		for i := range list {
			if strings.EqualFold(list[i].name, name) {
				return &list[i]
			}
		}
	}
	return nil
}

// tranWorkspace returns the engine's transient LU workspace with its
// pivot order forgotten, so that a run's first factorization pivots
// afresh exactly as on a new workspace, while the buffers, the
// fill-reducing order and the compact analysis carry over between the
// runs of one engine.
func (e *Engine) tranWorkspace() *numeric.Workspace {
	if e.tranWS == nil {
		e.tranWS = numeric.NewOrderedWorkspace(e.pat)
	}
	e.tranWS.Invalidate()
	return e.tranWS
}

// TranWork counts the work of an engine's transient runs: integration
// steps (halved ones included, as spice.tran.steps counts them), their
// Newton iterations (spice.tran.newton_iters) and the LU
// factorizations of their Jacobians, fresh or replaying a pivot order.
type TranWork struct {
	Steps, NewtonIters, Factorizations int64
}

// TranWork returns the work of every transient run of e so far. Unlike
// the trace's counters it is e's own, so concurrent engines reporting
// to one trace do not mix.
func (e *Engine) TranWork() TranWork { return e.work }

// factor factors m into ws, counting into w the factorization and
// whether it replayed a pivot order.
func (e *Engine) factor(ws *numeric.Workspace, m *numeric.Matrix, w *newtonWork) error {
	if e.factorHook != nil {
		e.factorHook(m)
	}
	reused, err := ws.FactorInto(m)
	if err == nil {
		w.factors++
		if reused {
			w.reused++
		}
	}
	return err
}

// canceled returns the binding context's error once it is done, nil
// otherwise.
func (e *Engine) canceled() error {
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

// NumUnknowns returns the size of the MNA system.
func (e *Engine) NumUnknowns() int { return e.n }

// NodeIndex exposes the unknown index for a net (-1 for ground),
// with ok=false for unknown nets.
func (e *Engine) NodeIndex(net string) (int, bool) {
	return e.node(circuit.NormalizeNet(net))
}

// node returns the unknown index of a normalized net, -1 for ground,
// with ok=false for a net that is not the netlist's.
func (e *Engine) node(net string) (int, bool) {
	if net == "0" {
		return -1, true
	}
	return slices.BinarySearch(e.nodeNames, net)
}

// BranchIndex returns the branch-current unknown of a V/E/L device
// (case-insensitive).
func (e *Engine) BranchIndex(name string) (int, bool) {
	for _, s := range e.vsrc {
		if strings.EqualFold(s.name, name) {
			return s.br, true
		}
	}
	for _, c := range e.vcvs {
		if strings.EqualFold(c.name, name) {
			return c.br, true
		}
	}
	for _, l := range e.inds {
		if strings.EqualFold(l.name, name) {
			return l.br, true
		}
	}
	return 0, false
}

// volt reads node voltage from a solution vector (ground = 0).
func volt(x []float64, idx int) float64 {
	if idx < 0 {
		return 0
	}
	return x[idx]
}

// voltC is the complex-solution analogue of volt.
func voltC(x []complex128, idx int) complex128 {
	if idx < 0 {
		return 0
	}
	return x[idx]
}
