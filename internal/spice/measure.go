package spice

import (
	"context"
	"fmt"
	"math"
	"strings"

	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/units"
)

// parseMeasure parses the tokens after ".measure":
//
//	tran <name> trig v(a) val=<v> rise=1 targ v(b) val=<v> fall=1
//	tran <name> max|min|avg|pp|rms v(x) [from=<t>] [to=<t>]
//	tran <name> when v(x)=<val> [rise=N|fall=N|cross=N]
//	ac   <name> find vdb(x) at=<f>
//	ac   <name> when vdb(x)=<val> [rise=N|fall=N|cross=N]
//	ac   <name> max|min vm(x)
func parseMeasure(fields []string) (Measure, error) {
	var m Measure
	if len(fields) < 3 {
		return m, fmt.Errorf("spice: .measure too short: %v", fields)
	}
	m.Analysis = strings.ToLower(fields[0])
	if m.Analysis != "tran" && m.Analysis != "ac" {
		return m, fmt.Errorf("spice: .measure analysis %q (want tran/ac)", fields[0])
	}
	m.Name = strings.ToLower(fields[1])
	op := strings.ToLower(fields[2])
	rest := fields[3:]
	switch op {
	case "trig":
		m.Kind = "trigtarg"
		return parseTrigTarg(m, rest)
	case "max", "min", "avg", "pp", "rms":
		m.Kind = op
		if len(rest) < 1 {
			return m, fmt.Errorf("spice: .measure %s %s needs a signal", m.Name, op)
		}
		m.Expr = strings.ToLower(rest[0])
		m.From, m.To = 0, math.Inf(1)
		for _, f := range rest[1:] {
			k, v, err := splitKV(f)
			if err != nil {
				return m, err
			}
			switch k {
			case "from":
				m.From = v
			case "to":
				m.To = v
			default:
				return m, fmt.Errorf("spice: .measure %s: unknown key %q", m.Name, k)
			}
		}
		return m, nil
	case "when":
		m.Kind = "when"
		if len(rest) < 1 {
			return m, fmt.Errorf("spice: .measure %s when needs expr=val", m.Name)
		}
		eq := strings.IndexByte(rest[0], '=')
		if eq <= 0 {
			return m, fmt.Errorf("spice: .measure %s when wants expr=val, got %q", m.Name, rest[0])
		}
		m.Expr = strings.ToLower(rest[0][:eq])
		v, err := units.Parse(rest[0][eq+1:])
		if err != nil {
			return m, err
		}
		m.WhenVal = v
		m.Edge = Edge{Dir: "cross", N: 1}
		for _, f := range rest[1:] {
			k, v, err := splitKV(f)
			if err != nil {
				return m, err
			}
			switch k {
			case "rise", "fall", "cross":
				m.Edge = Edge{Dir: k, N: int(v)}
			default:
				return m, fmt.Errorf("spice: .measure %s: unknown key %q", m.Name, k)
			}
		}
		return m, nil
	case "find":
		m.Kind = "find"
		if len(rest) < 2 {
			return m, fmt.Errorf("spice: .measure %s find needs signal and at=", m.Name)
		}
		m.Expr = strings.ToLower(rest[0])
		k, v, err := splitKV(rest[1])
		if err != nil || k != "at" {
			return m, fmt.Errorf("spice: .measure %s find wants at=<x>", m.Name)
		}
		m.At = v
		return m, nil
	default:
		return m, fmt.Errorf("spice: .measure op %q unsupported", op)
	}
}

func parseTrigTarg(m Measure, rest []string) (Measure, error) {
	// trig was consumed; rest: v(a) val=.. rise=1 [td=..] targ v(b) val=.. fall=1
	targIdx := -1
	for i, f := range rest {
		if strings.EqualFold(f, "targ") {
			targIdx = i
			break
		}
	}
	if targIdx < 0 {
		return m, fmt.Errorf("spice: .measure %s: trig without targ", m.Name)
	}
	parseHalf := func(toks []string) (expr string, val float64, edge Edge, err error) {
		if len(toks) < 2 {
			return "", 0, Edge{}, fmt.Errorf("spice: .measure %s: incomplete trig/targ", m.Name)
		}
		expr = strings.ToLower(toks[0])
		edge = Edge{Dir: "cross", N: 1}
		for _, f := range toks[1:] {
			k, v, e := splitKV(f)
			if e != nil {
				return "", 0, Edge{}, e
			}
			switch k {
			case "val":
				val = v
			case "rise", "fall", "cross":
				edge = Edge{Dir: k, N: int(v)}
			case "td":
				// Trigger search delay: fold into From.
				m.From = v
			default:
				return "", 0, Edge{}, fmt.Errorf("spice: .measure %s: unknown key %q", m.Name, k)
			}
		}
		return expr, val, edge, nil
	}
	var err error
	m.TrigExpr, m.TrigVal, m.TrigEdge, err = parseHalf(rest[:targIdx])
	if err != nil {
		return m, err
	}
	m.TargExpr, m.TargVal, m.TargEdge, err = parseHalf(rest[targIdx+1:])
	return m, err
}

func splitKV(tok string) (string, float64, error) {
	eq := strings.IndexByte(tok, '=')
	if eq <= 0 {
		return "", 0, fmt.Errorf("spice: expected key=value, got %q", tok)
	}
	v, err := units.Parse(tok[eq+1:])
	if err != nil {
		return "", 0, fmt.Errorf("spice: value in %q: %v", tok, err)
	}
	return strings.ToLower(tok[:eq]), v, nil
}

// tranSeries extracts a real-valued waveform for a measure expression
// from a transient result: v(net) or i(source).
func tranSeries(res *TranResult, expr string) ([]float64, error) {
	name, kind, err := splitSignal(expr)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "v":
		if _, ok := res.e.NodeIndex(name); !ok {
			return nil, fmt.Errorf("spice: measure of unknown net %q", name)
		}
		return res.Volt(name), nil
	case "i":
		return res.Current(name)
	default:
		return nil, fmt.Errorf("spice: %s() not valid in tran measures", kind)
	}
}

// acSeries extracts a real-valued curve over frequency: vdb, vm, vp,
// vr, vi of a net, or v (magnitude) for convenience.
func acSeries(res *ACResult, expr string) ([]float64, error) {
	name, kind, err := splitSignal(expr)
	if err != nil {
		return nil, err
	}
	if kind != "i" {
		if _, ok := res.e.NodeIndex(name); !ok {
			return nil, fmt.Errorf("spice: measure of unknown net %q", name)
		}
	}
	out := make([]float64, len(res.Freqs))
	for k := range res.Freqs {
		switch kind {
		case "vdb":
			out[k] = res.MagDB(name, k)
		case "vm", "v":
			out[k] = cabs(res.Volt(name, k))
		case "vp":
			out[k] = res.PhaseDeg(name, k)
		case "vr":
			out[k] = real(res.Volt(name, k))
		case "vi":
			out[k] = imag(res.Volt(name, k))
		case "i":
			c, err := res.Current(name, k)
			if err != nil {
				return nil, err
			}
			out[k] = cabs(c)
		default:
			return nil, fmt.Errorf("spice: %s() not valid in AC measures", kind)
		}
	}
	return out, nil
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// splitSignal parses "v(out)" into ("out", "v").
func splitSignal(expr string) (name, kind string, err error) {
	open := strings.IndexByte(expr, '(')
	if open <= 0 || !strings.HasSuffix(expr, ")") {
		return "", "", fmt.Errorf("spice: bad signal expression %q", expr)
	}
	return strings.ToLower(expr[open+1 : len(expr)-1]), strings.ToLower(expr[:open]), nil
}

// crossings returns the x positions where series crosses val with the
// given direction, interpolated linearly between samples.
func crossings(xs, ys []float64, val float64, dir string) []float64 {
	var out []float64
	for i := 1; i < len(ys); i++ {
		y0, y1 := ys[i-1], ys[i]
		rising := y0 < val && y1 >= val
		falling := y0 > val && y1 <= val
		hit := false
		switch dir {
		case "rise":
			hit = rising
		case "fall":
			hit = falling
		default:
			hit = rising || falling
		}
		if !hit || y1 == y0 {
			continue
		}
		f := (val - y0) / (y1 - y0)
		out = append(out, xs[i-1]+f*(xs[i]-xs[i-1]))
	}
	return out
}

func nthCrossing(xs, ys []float64, val float64, e Edge, from float64) (float64, error) {
	all := crossings(xs, ys, val, e.Dir)
	n := e.N
	if n < 1 {
		n = 1
	}
	count := 0
	for _, x := range all {
		if x < from {
			continue
		}
		count++
		if count == n {
			return x, nil
		}
	}
	return 0, fmt.Errorf("spice: %s crossing #%d of %g not found", e.Dir, n, val)
}

// EvalMeasureTran evaluates a tran measure against a result.
func EvalMeasureTran(m Measure, res *TranResult) (float64, error) {
	switch m.Kind {
	case "trigtarg":
		trig, err := tranSeries(res, m.TrigExpr)
		if err != nil {
			return 0, err
		}
		targ, err := tranSeries(res, m.TargExpr)
		if err != nil {
			return 0, err
		}
		t0, err := nthCrossing(res.Times, trig, m.TrigVal, m.TrigEdge, m.From)
		if err != nil {
			return 0, fmt.Errorf("%s trig: %w", m.Name, err)
		}
		t1, err := nthCrossing(res.Times, targ, m.TargVal, m.TargEdge, t0)
		if err != nil {
			return 0, fmt.Errorf("%s targ: %w", m.Name, err)
		}
		return t1 - t0, nil
	case "when":
		ys, err := tranSeries(res, m.Expr)
		if err != nil {
			return 0, err
		}
		return nthCrossing(res.Times, ys, m.WhenVal, m.Edge, m.From)
	case "max", "min", "avg", "pp", "rms":
		ys, err := tranSeries(res, m.Expr)
		if err != nil {
			return 0, err
		}
		return reduce(m.Kind, res.Times, ys, m.From, m.To)
	default:
		return 0, fmt.Errorf("spice: measure kind %q not valid for tran", m.Kind)
	}
}

// EvalMeasureAC evaluates an AC measure against a result.
func EvalMeasureAC(m Measure, res *ACResult) (float64, error) {
	switch m.Kind {
	case "find":
		ys, err := acSeries(res, m.Expr)
		if err != nil {
			return 0, err
		}
		v, ok := interpLog(res.Freqs, ys, m.At)
		if !ok {
			return 0, fmt.Errorf("spice: measure %s: find at=%g is outside the sweep", m.Name, m.At)
		}
		return v, nil
	case "when":
		ys, err := acSeries(res, m.Expr)
		if err != nil {
			return 0, err
		}
		return nthCrossing(res.Freqs, ys, m.WhenVal, m.Edge, 0)
	case "max", "min", "avg", "pp", "rms":
		ys, err := acSeries(res, m.Expr)
		if err != nil {
			return 0, err
		}
		return reduce(m.Kind, res.Freqs, ys, 0, math.Inf(1))
	default:
		return 0, fmt.Errorf("spice: measure kind %q not valid for ac", m.Kind)
	}
}

// reduce computes a windowed reduction over (xs, ys).
func reduce(kind string, xs, ys []float64, from, to float64) (float64, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	sum, sumsq, tspan := 0.0, 0.0, 0.0
	prevX := math.NaN()
	prevY := 0.0
	seen := false
	for i, x := range xs {
		if x < from || x > to {
			continue
		}
		y := ys[i]
		seen = true
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
		if !math.IsNaN(prevX) {
			dt := x - prevX
			sum += dt * (y + prevY) / 2
			sumsq += dt * (y*y + prevY*prevY) / 2
			tspan += dt
		}
		prevX, prevY = x, y
	}
	if !seen {
		return 0, fmt.Errorf("spice: measure window [%g, %g] is empty", from, to)
	}
	switch kind {
	case "max":
		return hi, nil
	case "min":
		return lo, nil
	case "pp":
		return hi - lo, nil
	case "avg":
		if tspan == 0 {
			return prevY, nil
		}
		return sum / tspan, nil
	case "rms":
		if tspan == 0 {
			return math.Abs(prevY), nil
		}
		return math.Sqrt(sumsq / tspan), nil
	}
	return 0, fmt.Errorf("spice: unknown reduction %q", kind)
}

// interpLog interpolates ys over log xs at x. It reports false when x
// lies outside [xs[0], xs[n-1]]: a sweep says nothing there, and
// reading its end sample instead would let a one-point sweep answer
// every frequency.
func interpLog(xs, ys []float64, x float64) (float64, bool) {
	n := len(xs)
	switch {
	case n == 0 || x < xs[0] || x > xs[n-1]:
		return 0, false
	case x == xs[0]:
		return ys[0], true
	case x == xs[n-1]:
		return ys[n-1], true
	}
	for i := 1; i < n; i++ {
		if xs[i] >= x {
			f := math.Log(x/xs[i-1]) / math.Log(xs[i]/xs[i-1])
			return ys[i-1] + f*(ys[i]-ys[i-1]), true
		}
	}
	return ys[n-1], true
}

// Results bundles the outputs of running a deck.
type Results struct {
	OP       *OPResult
	AC       *ACResult
	Tran     *TranResult
	DC       *DCSweepResult
	Measures map[string]float64
}

// Run solves a deck: it executes every analysis (the last of each kind
// wins for result storage) and evaluates all measures. The solver
// inner loops poll ctx for cancellation, the context's fault injector
// (if any) arms the engine's fault sites, and the deck is counted on
// the context's trace: spice.decks, and spice.duplicate_decks when the
// trace has already solved a deck of the same content (see digest) —
// the ground-truth check that the evaluation cache really eliminated
// repeated simulations. The primitive testbenches build their decks
// in memory and solve them here.
func Run(ctx context.Context, t *pdk.Tech, deck *Deck) (*Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr := obs.From(ctx); tr.Enabled() {
		tr.Counter("spice.decks").Inc()
		if tr.Seen("spice.decks", deck.digest()) {
			tr.Counter("spice.duplicate_decks").Inc()
		}
	}
	e, err := New(ctx, t, deck.Netlist)
	if err != nil {
		return nil, err
	}
	res := &Results{Measures: make(map[string]float64)}
	for _, a := range deck.Analyses {
		switch a.Kind {
		case "op":
			op, err := e.OP()
			if err != nil {
				return nil, err
			}
			res.OP = op
		case "ac":
			if res.OP == nil {
				op, err := e.OP()
				if err != nil {
					return nil, err
				}
				res.OP = op
			}
			sweep := e.AC
			if a.Lin {
				sweep = e.ACLin
			}
			ac, err := sweep(a.FStart, a.FStop, a.Points, res.OP)
			if err != nil {
				return nil, err
			}
			res.AC = ac
		case "tran":
			tr, err := e.Tran(a.TStep, a.TStop, TranOpts{IC: deck.ICs, UIC: a.UIC})
			if err != nil {
				return nil, err
			}
			res.Tran = tr
		case "dc":
			sw, err := e.DCSweep(a.Src, a.Start, a.Stop, a.Step)
			if err != nil {
				return nil, err
			}
			res.DC = sw
		default:
			return nil, fmt.Errorf("spice: unknown analysis %q", a.Kind)
		}
	}
	for _, m := range deck.Measures {
		var v float64
		var err error
		switch m.Analysis {
		case "tran":
			if res.Tran == nil {
				return nil, fmt.Errorf("spice: measure %s needs a .tran analysis", m.Name)
			}
			v, err = EvalMeasureTran(m, res.Tran)
		case "ac":
			if res.AC == nil {
				return nil, fmt.Errorf("spice: measure %s needs an .ac analysis", m.Name)
			}
			v, err = EvalMeasureAC(m, res.AC)
		}
		if err != nil {
			return nil, err
		}
		res.Measures[m.Name] = v
	}
	return res, nil
}

// RunSourceCtx parses deck text with ParseDeck and solves it with
// Run, which counts it on the context's trace. spicetool runs the
// decks it reads this way.
func RunSourceCtx(ctx context.Context, t *pdk.Tech, src string) (*Results, *Deck, error) {
	deck, err := ParseDeck(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(ctx, t, deck)
	if err != nil {
		return nil, nil, err
	}
	return res, deck, nil
}
