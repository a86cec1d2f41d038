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
	"strings"

	"primopt/internal/circuit"
	"primopt/internal/device"
	"primopt/internal/fault"
	"primopt/internal/numeric"
	"primopt/internal/obs"
	"primopt/internal/pdk"
)

// Engine holds the MNA structure for one netlist: the node and branch
// unknown assignment plus device lists split by kind.
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

	mos     []*circuit.Device
	mosCtx  []*device.EvalContext
	mosNode [][4]int // precomputed node indices (d, g, s, b)
	res     []*circuit.Device
	caps    []*circuit.Device
	inds    []*circuit.Device
	vsrc    []*circuit.Device
	isrc    []*circuit.Device
	vcvs    []*circuit.Device
	vccs    []*circuit.Device

	// Branch unknown index per vsrc/ind/vcvs, in slice order. The
	// stamp loops run every Newton iteration; indexing here instead of
	// branchOf[strings.ToLower(name)] keeps them map- and
	// allocation-free.
	vsrcBr []int
	indBr  []int
	vcvsBr []int

	// mosState holds the device states from the most recent
	// stampMOSDC pass. After a converged Newton loop these are the
	// states at the accepted bias (to within the convergence
	// tolerance), letting the transient cap refresh skip a full
	// device re-evaluation per step.
	mosState []device.MOSState

	scr    *solverScratch     // lazily-built DC Newton scratch (see dc.go)
	pat    *numeric.Pattern   // lazily-built MNA pattern (see pattern)
	tranWS *numeric.Workspace // transient LU workspace (see tranWorkspace)

	// factorHook, when set, sees every real matrix the engine hands to
	// an LU workspace. Tests use it to check pattern coverage.
	factorHook func(*numeric.Matrix)
}

// New builds the MNA structure for nl under technology t, bound to
// ctx: inner solver loops poll it for cancellation, and the engine
// reports to the context's trace and honors its fault injector. The
// engine is not concurrency-safe.
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
	for _, d := range nl.Devices {
		switch d.Type {
		case circuit.NMOS, circuit.PMOS:
			e.mos = append(e.mos, d)
		case circuit.Resistor:
			if d.Param("r", 0) <= 0 {
				return nil, fmt.Errorf("spice: resistor %s has non-positive value", d.Name)
			}
			e.res = append(e.res, d)
		case circuit.Capacitor:
			if d.Param("c", 0) < 0 {
				return nil, fmt.Errorf("spice: capacitor %s has negative value", d.Name)
			}
			e.caps = append(e.caps, d)
		case circuit.Inductor:
			if d.Param("l", 0) <= 0 {
				return nil, fmt.Errorf("spice: inductor %s has non-positive value", d.Name)
			}
			e.inds = append(e.inds, d)
			e.branchOf[strings.ToLower(d.Name)] = nextBranch
			e.indBr = append(e.indBr, nextBranch)
			nextBranch++
		case circuit.VSource:
			e.vsrc = append(e.vsrc, d)
			e.branchOf[strings.ToLower(d.Name)] = nextBranch
			e.vsrcBr = append(e.vsrcBr, nextBranch)
			nextBranch++
		case circuit.ISource:
			e.isrc = append(e.isrc, d)
		case circuit.VCVS:
			e.vcvs = append(e.vcvs, d)
			e.branchOf[strings.ToLower(d.Name)] = nextBranch
			e.vcvsBr = append(e.vcvsBr, nextBranch)
			nextBranch++
		case circuit.VCCS:
			e.vccs = append(e.vccs, d)
		default:
			return nil, fmt.Errorf("spice: unsupported device type %v (%s)", d.Type, d.Name)
		}
	}
	e.n = nextBranch
	if e.n == 0 {
		return nil, fmt.Errorf("spice: empty circuit %s", nl.Name)
	}
	// Precompute per-MOS evaluation contexts and node indices for the
	// Newton inner loops.
	for _, d := range e.mos {
		e.mosCtx = append(e.mosCtx, device.NewContext(t, d))
		e.mosNode = append(e.mosNode, [4]int{
			e.node(d.Nets[0]), e.node(d.Nets[1]), e.node(d.Nets[2]), e.node(d.Nets[3]),
		})
	}
	e.mosState = make([]device.MOSState, len(e.mos))
	return e, nil
}

// pattern returns the structural pattern of the engine's real MNA
// matrices, built on first use: a superset of every position a DC or
// transient stamp writes. Two-terminal elements (resistors,
// capacitors) couple their nodes; a MOS is the full block over its
// four terminals, which holds its conductances, its gmin shunts and
// its five capacitances; sources and inductors add their branch rows
// and columns; the diagonal is always present.
func (e *Engine) pattern() *numeric.Pattern {
	if e.pat != nil {
		return e.pat
	}
	b := numeric.NewPatternBuilder(e.n)
	couple := func(p, q int) {
		b.Add(p, p)
		b.Add(q, q)
		b.Add(p, q)
		b.Add(q, p)
	}
	branch := func(br, p, q int) {
		b.Add(p, br)
		b.Add(q, br)
		b.Add(br, p)
		b.Add(br, q)
	}
	for _, d := range e.res {
		couple(e.node(d.Nets[0]), e.node(d.Nets[1]))
	}
	for _, d := range e.caps {
		couple(e.node(d.Nets[0]), e.node(d.Nets[1]))
	}
	for _, nodes := range e.mosNode {
		for _, i := range nodes {
			for _, j := range nodes {
				b.Add(i, j)
			}
		}
	}
	for di, d := range e.vsrc {
		branch(e.vsrcBr[di], e.node(d.Nets[0]), e.node(d.Nets[1]))
	}
	for di, d := range e.vcvs {
		br := e.vcvsBr[di]
		branch(br, e.node(d.Nets[0]), e.node(d.Nets[1]))
		b.Add(br, e.node(d.Nets[2]))
		b.Add(br, e.node(d.Nets[3]))
	}
	for _, d := range e.vccs {
		p, q := e.node(d.Nets[0]), e.node(d.Nets[1])
		cp, cn := e.node(d.Nets[2]), e.node(d.Nets[3])
		b.Add(p, cp)
		b.Add(p, cn)
		b.Add(q, cp)
		b.Add(q, cn)
	}
	for di, d := range e.inds {
		branch(e.indBr[di], e.node(d.Nets[0]), e.node(d.Nets[1]))
	}
	e.pat = b.Build()
	return e.pat
}

// newWorkspace returns an LU workspace for the engine's real MNA
// matrices, carrying their pattern.
func (e *Engine) newWorkspace() *numeric.Workspace {
	return numeric.NewPatternWorkspace(e.pattern())
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
