// Package spice implements the circuit simulator that powers every
// optimization step in the paper: modified nodal analysis (MNA) with a
// damped-Newton DC operating point (with gmin and source stepping),
// complex small-signal AC sweeps, and a trapezoidal transient engine
// with sub-stepping on nonconvergence. A SPICE-subset deck parser and
// .measure evaluation make the primitive testbenches real SPICE decks,
// as in the paper (Section II-B).
//
// The engine is sized for the paper's workload — primitives with a
// handful of transistors and full circuits with tens of nodes — so it
// uses dense LU throughout.
package spice

import (
	"context"
	"fmt"
	"strings"

	"primopt/internal/circuit"
	"primopt/internal/device"
	"primopt/internal/fault"
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

	scr *solverScratch // lazily-built DC Newton scratch (see dc.go)
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
