// Package spice implements the circuit simulator that powers every
// optimization step in the paper: modified nodal analysis (MNA) with a
// damped-Newton DC operating point (with gmin and source stepping),
// complex small-signal AC sweeps, and a trapezoidal transient engine
// with sub-stepping on nonconvergence. Run solves a Deck — netlist,
// analyses and .measure statements — which is the form the primitive
// testbenches take, as in the paper (Section II-B); they build theirs
// in memory. ParseDeck reads a deck from SPICE-subset text.
//
// Matrices are stamped dense. Each engine computes once the
// structural pattern of its real MNA matrices and gives it to the LU
// workspaces of its operating-point and transient solves, which
// refactor and solve large sparse systems (the post-layout RO-VCO)
// along that pattern, bit-identically to the dense loops; primitive
// testbench matrices stay on the dense loops. AC analysis is dense
// throughout.
package spice

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
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

	nodeOf    map[string]int // net -> unknown index; ground absent
	nodeNames []string       // index -> net
	branchOf  map[string]int // device name -> branch unknown index
	numNodes  int
	n         int // total unknowns

	// The linear elements, compiled by New in netlist order per kind:
	// unknowns resolved and parameters read once, so no analysis
	// touches a parameter map or a net name.
	res  []twoTerm // v = 1/r
	caps []twoTerm // v = C
	inds []inductor
	vsrc []source
	isrc []source
	vcvs []controlled
	vccs []controlled

	mos     []*circuit.Device
	mosCtx  []*device.EvalContext
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

	scr    *solverScratch     // lazily-built DC Newton scratch (see dc.go)
	tranWS *numeric.Workspace // transient LU workspace (see tranWorkspace)

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
	p, q, cp, cn, br int
	gain             float64
}

// New compiles nl under technology t, bound to ctx: inner solver loops
// poll it for cancellation, and the engine reports to the context's
// trace and honors its fault injector. Element values are read from
// nl here once; later changes to its parameters do not reach the
// engine. The engine is not concurrency-safe.
func New(ctx context.Context, t *pdk.Tech, nl *circuit.Netlist) (*Engine, error) {
	e := &Engine{
		Tech:     t,
		NL:       nl,
		ctx:      ctx,
		inj:      fault.From(ctx),
		tr:       obs.From(ctx),
		nodeOf:   make(map[string]int),
		branchOf: make(map[string]int),
	}
	for _, net := range nl.Nets() {
		if net == "0" {
			continue
		}
		e.nodeOf[net] = len(e.nodeNames)
		e.nodeNames = append(e.nodeNames, net)
	}
	e.numNodes = len(e.nodeNames)

	nextBranch := e.numNodes
	branch := func(d *circuit.Device) int {
		e.branchOf[strings.ToLower(d.Name)] = nextBranch
		nextBranch++
		return nextBranch - 1
	}
	for _, d := range nl.Devices {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		switch d.Type {
		case circuit.NMOS, circuit.PMOS:
			e.mos = append(e.mos, d)
			e.mosCtx = append(e.mosCtx, device.NewContext(t, d))
			e.mosNode = append(e.mosNode, [4]int{p, q, e.node(d.Nets[2]), e.node(d.Nets[3])})
		case circuit.Resistor:
			r := d.Param("r", 0)
			if r <= 0 {
				return nil, fmt.Errorf("spice: resistor %s has non-positive value", d.Name)
			}
			e.res = append(e.res, twoTerm{p, q, 1 / r})
		case circuit.Capacitor:
			c := d.Param("c", 0)
			if c < 0 {
				return nil, fmt.Errorf("spice: capacitor %s has negative value", d.Name)
			}
			e.caps = append(e.caps, twoTerm{p, q, c})
		case circuit.Inductor:
			l := d.Param("l", 0)
			if l <= 0 {
				return nil, fmt.Errorf("spice: inductor %s has non-positive value", d.Name)
			}
			e.inds = append(e.inds, inductor{p, q, branch(d), l})
		case circuit.VSource, circuit.ISource:
			s := source{name: d.Name, p: p, q: q, br: -1, dc: d.Param("dc", 0), wave: d.Wave,
				ac: cmplx.Rect(d.Param("acmag", 0), d.Param("acphase", 0)*math.Pi/180)}
			if d.Type == circuit.VSource {
				s.br = branch(d)
				e.vsrc = append(e.vsrc, s)
			} else {
				e.isrc = append(e.isrc, s)
			}
		case circuit.VCVS:
			cp, cn := e.node(d.Nets[2]), e.node(d.Nets[3])
			e.vcvs = append(e.vcvs, controlled{p, q, cp, cn, branch(d), d.Param("gain", 1)})
		case circuit.VCCS:
			cp, cn := e.node(d.Nets[2]), e.node(d.Nets[3])
			e.vccs = append(e.vccs, controlled{p, q, cp, cn, -1, d.Param("gain", 0)})
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
	name = strings.ToLower(name)
	for _, list := range [][]source{e.vsrc, e.isrc} {
		for i := range list {
			if strings.ToLower(list[i].name) == name {
				return &list[i]
			}
		}
	}
	return nil
}

// newWorkspace returns an LU workspace for the engine's real MNA
// matrices, carrying their pattern.
func (e *Engine) newWorkspace() *numeric.Workspace {
	return numeric.NewPatternWorkspace(e.pat)
}

// tranWorkspace returns the engine's transient LU workspace with its
// pivot order forgotten, so that a run's first factorization pivots
// afresh exactly as on a new workspace, while the buffers and the
// compact analysis carry over between the runs of one engine.
func (e *Engine) tranWorkspace() *numeric.Workspace {
	if e.tranWS == nil {
		e.tranWS = e.newWorkspace()
	}
	e.tranWS.Invalidate()
	return e.tranWS
}

// factor factors m into ws.
func (e *Engine) factor(ws *numeric.Workspace, m *numeric.Matrix) (bool, error) {
	if e.factorHook != nil {
		e.factorHook(m)
	}
	return ws.FactorInto(m)
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

// node returns the unknown index of a net, or -1 for ground.
func (e *Engine) node(net string) int {
	if net == "0" {
		return -1
	}
	return e.nodeOf[net]
}

// NumUnknowns returns the size of the MNA system.
func (e *Engine) NumUnknowns() int { return e.n }

// NodeIndex exposes the unknown index for a net (-1 for ground),
// with ok=false for unknown nets.
func (e *Engine) NodeIndex(net string) (int, bool) {
	net = circuit.NormalizeNet(net)
	if net == "0" {
		return -1, true
	}
	i, ok := e.nodeOf[net]
	return i, ok
}

// BranchIndex returns the branch-current unknown of a V/E/L device
// (case-insensitive).
func (e *Engine) BranchIndex(name string) (int, bool) {
	i, ok := e.branchOf[strings.ToLower(name)]
	return i, ok
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
