package spice

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"primopt/internal/circuit"
	"primopt/internal/units"
)

// Deck is a SPICE input: a flattened netlist plus the analyses,
// initial conditions, and measure statements it requests. ParseDeck
// reads one from text; the primitive testbenches (paper Section II-B:
// "a SPICE file that contains excitation and measure statements
// required to compute the metric") build theirs in memory.
type Deck struct {
	Title    string
	Netlist  *circuit.Netlist
	Analyses []Analysis
	Measures []Measure
	ICs      map[string]float64
}

// Analysis is one .op/.ac/.tran request.
type Analysis struct {
	Kind string // "op", "ac", "tran"

	// AC fields: Points log-spaced points per decade from FStart to
	// FStop (.ac dec), or Points linearly spaced points in all when Lin
	// is set (.ac lin).
	FStart, FStop float64
	Points        int
	Lin           bool

	// Tran fields.
	TStep, TStop float64
	UIC          bool

	// DC sweep fields.
	Src               string
	Start, Stop, Step float64
}

// Measure is one .measure statement (subset: trig/targ delay,
// max/min/avg/pp/rms over a window, when-crossing, find-at).
type Measure struct {
	Analysis string // "tran" or "ac"
	Name     string
	Kind     string // "trigtarg", "max", "min", "avg", "pp", "rms", "when", "find"

	Expr string // signal expression: v(x), i(vx), vdb(x), vm(x), vp(x)

	// trigtarg fields.
	TrigExpr           string
	TrigVal, TargVal   float64
	TrigEdge, TargEdge Edge
	TargExpr           string

	// when fields.
	WhenVal float64
	Edge    Edge

	// find fields.
	At float64

	// window (tran reductions).
	From, To float64
}

// Edge selects one crossing of a measure: the N-th (1-based) rising,
// falling or either-way crossing.
type Edge struct {
	Dir string // "rise", "fall", "cross"
	N   int
}

type subcktDef struct {
	name  string
	ports []string
	lines []string
}

// ParseDeck parses SPICE source text. The first line is the title
// unless it parses as an element or directive.
func ParseDeck(src string) (*Deck, error) {
	lines := joinContinuations(src)
	deck := &Deck{Netlist: circuit.New("deck"), ICs: make(map[string]float64)}
	params := make(map[string]string)
	subckts := make(map[string]*subcktDef)

	// Pass 1: strip subckt bodies and collect them.
	var topLines []string
	var cur *subcktDef
	for i, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		low := strings.ToLower(fields[0])
		switch {
		case low == ".subckt":
			if cur != nil {
				return nil, fmt.Errorf("spice: nested .subckt at line %d", i+1)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("spice: .subckt needs a name at line %d", i+1)
			}
			cur = &subcktDef{name: strings.ToLower(fields[1])}
			for _, p := range fields[2:] {
				cur.ports = append(cur.ports, circuit.NormalizeNet(p))
			}
		case low == ".ends":
			if cur == nil {
				return nil, fmt.Errorf("spice: .ends without .subckt at line %d", i+1)
			}
			subckts[cur.name] = cur
			cur = nil
		default:
			if cur != nil {
				cur.lines = append(cur.lines, ln)
			} else {
				topLines = append(topLines, ln)
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("spice: unterminated .subckt %s", cur.name)
	}

	// Pass 2: directives and elements.
	first := true
	for _, ln := range topLines {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		head := strings.ToLower(fields[0])
		if first {
			first = false
			if !isElementOrDirective(head) {
				deck.Title = strings.TrimSpace(ln)
				continue
			}
		}
		if err := parseLine(deck, params, subckts, nil, fields); err != nil {
			return nil, err
		}
	}
	return deck, nil
}

// joinContinuations splits src into logical lines, merging '+'
// continuations and stripping comments.
func joinContinuations(src string) []string {
	var out []string
	for _, raw := range strings.Split(src, "\n") {
		ln := raw
		// Inline comments: '$' or ';'.
		if i := strings.IndexAny(ln, "$;"); i >= 0 {
			ln = ln[:i]
		}
		ln = strings.TrimRight(ln, " \t\r")
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		if strings.HasPrefix(trimmed, "+") && len(out) > 0 {
			out[len(out)-1] += " " + strings.TrimPrefix(trimmed, "+")
			continue
		}
		out = append(out, trimmed)
	}
	return out
}

func isElementOrDirective(head string) bool {
	if strings.HasPrefix(head, ".") {
		return true
	}
	switch head[0] {
	case 'm', 'r', 'c', 'l', 'v', 'i', 'e', 'g', 'x':
		return len(head) > 1
	}
	return false
}

// parseLine dispatches one logical line. expanding lists the .subckt
// definitions whose bodies enclose the line, outermost first.
func parseLine(deck *Deck, params map[string]string, subckts map[string]*subcktDef,
	expanding []string, fields []string) error {
	head := strings.ToLower(fields[0])
	if strings.HasPrefix(head, ".") {
		return parseDirective(deck, params, fields)
	}
	// Substitute parameters in all value positions.
	for i := 1; i < len(fields); i++ {
		if v, ok := params[strings.ToLower(fields[i])]; ok {
			fields[i] = v
		} else if eq := strings.IndexByte(fields[i], '='); eq >= 0 {
			rhs := strings.ToLower(fields[i][eq+1:])
			if v, ok := params[rhs]; ok {
				fields[i] = fields[i][:eq+1] + v
			}
		}
	}
	switch head[0] {
	case 'm':
		return parseMOS(deck, fields)
	case 'r', 'c', 'l':
		return parseTwoTerm(deck, fields)
	case 'v', 'i':
		return parseSource(deck, fields)
	case 'e', 'g':
		return parseControlled(deck, fields)
	case 'x':
		return parseSubcktInst(deck, params, subckts, expanding, fields)
	}
	return fmt.Errorf("spice: unrecognized element %q", fields[0])
}

func parseDirective(deck *Deck, params map[string]string, fields []string) error {
	switch strings.ToLower(fields[0]) {
	case ".end", ".option", ".options", ".temp", ".model":
		return nil // accepted and ignored (models are built-in)
	case ".param":
		for _, f := range fields[1:] {
			eq := strings.IndexByte(f, '=')
			if eq <= 0 {
				return fmt.Errorf("spice: bad .param %q", f)
			}
			params[strings.ToLower(f[:eq])] = f[eq+1:]
		}
		return nil
	case ".op":
		deck.Analyses = append(deck.Analyses, Analysis{Kind: "op"})
		return nil
	case ".ac":
		// .ac dec|lin N fstart fstop
		grid := ""
		if len(fields) == 5 {
			grid = strings.ToLower(fields[1])
		}
		if grid != "dec" && grid != "lin" {
			return fmt.Errorf("spice: .ac wants 'dec|lin N fstart fstop', got %v", fields)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("spice: .ac points: %v", err)
		}
		if n < 1 {
			return fmt.Errorf("spice: .ac %s points %d, want at least 1", grid, n)
		}
		fs, err := units.Parse(fields[3])
		if err != nil {
			return err
		}
		fe, err := units.Parse(fields[4])
		if err != nil {
			return err
		}
		deck.Analyses = append(deck.Analyses, Analysis{Kind: "ac", FStart: fs, FStop: fe, Points: n, Lin: grid == "lin"})
		return nil
	case ".dc":
		// .dc <src> <start> <stop> <step>
		if len(fields) != 5 {
			return fmt.Errorf("spice: .dc wants 'src start stop step'")
		}
		start, err := units.Parse(fields[2])
		if err != nil {
			return err
		}
		stop, err := units.Parse(fields[3])
		if err != nil {
			return err
		}
		step, err := units.Parse(fields[4])
		if err != nil {
			return err
		}
		deck.Analyses = append(deck.Analyses, Analysis{
			Kind: "dc", Src: fields[1], Start: start, Stop: stop, Step: step,
		})
		return nil
	case ".tran":
		if len(fields) < 3 {
			return fmt.Errorf("spice: .tran wants 'tstep tstop [uic]'")
		}
		ts, err := units.Parse(fields[1])
		if err != nil {
			return err
		}
		te, err := units.Parse(fields[2])
		if err != nil {
			return err
		}
		uic := len(fields) > 3 && strings.EqualFold(fields[len(fields)-1], "uic")
		deck.Analyses = append(deck.Analyses, Analysis{Kind: "tran", TStep: ts, TStop: te, UIC: uic})
		return nil
	case ".ic":
		// .ic v(net)=val ...
		for _, f := range fields[1:] {
			eq := strings.IndexByte(f, '=')
			if eq <= 0 {
				return fmt.Errorf("spice: bad .ic %q", f)
			}
			lhs := strings.ToLower(f[:eq])
			if !strings.HasPrefix(lhs, "v(") || !strings.HasSuffix(lhs, ")") {
				return fmt.Errorf("spice: .ic wants v(net)=val, got %q", f)
			}
			net := circuit.NormalizeNet(lhs[2 : len(lhs)-1])
			v, err := units.Parse(f[eq+1:])
			if err != nil {
				return err
			}
			deck.ICs[net] = v
		}
		return nil
	case ".measure", ".meas":
		m, err := parseMeasure(fields[1:])
		if err != nil {
			return err
		}
		deck.Measures = append(deck.Measures, m)
		return nil
	default:
		return fmt.Errorf("spice: unknown directive %s", fields[0])
	}
}

func parseMOS(deck *Deck, fields []string) error {
	// Mname d g s b model [param=val ...]
	if len(fields) < 6 {
		return fmt.Errorf("spice: MOS %q needs d g s b model", fields[0])
	}
	model := strings.ToLower(fields[5])
	var typ circuit.DeviceType
	switch model {
	case "nmos", "nfet", "n":
		typ = circuit.NMOS
	case "pmos", "pfet", "p":
		typ = circuit.PMOS
	default:
		return fmt.Errorf("spice: MOS %q has unknown model %q (want nmos/pmos)", fields[0], model)
	}
	// An absent geometry value is one fin, finger and copy, and the
	// technology's gate length.
	d := &circuit.Device{
		Name: fields[0],
		Type: typ,
		Nets: []string{fields[1], fields[2], fields[3], fields[4]},
		MOS:  circuit.MOS{NFin: 1, NF: 1, M: 1},
	}
	m := &d.MOS
	// The model reads these values, and a line may give no others. The
	// last six are extraction's, given all or none.
	values := [...]struct {
		key string
		dst *float64
	}{
		{"nfin", &m.NFin}, {"nf", &m.NF}, {"m", &m.M}, {"l", &m.L},
		{"dvth", &m.DVth}, {"dmu", &m.DMu}, {"ad", &m.AD}, {"as", &m.AS}, {"pd", &m.PD}, {"ps", &m.PS},
	}
	var given [len(values)]bool
	for _, f := range fields[6:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return fmt.Errorf("spice: MOS %q bad param %q", fields[0], f)
		}
		key := strings.ToLower(f[:eq])
		v, err := units.Parse(f[eq+1:])
		if err != nil {
			return fmt.Errorf("spice: MOS %q param %q: %v", fields[0], f, err)
		}
		k := -1
		for i := range values {
			if values[i].key == key {
				k = i
			}
		}
		if k < 0 {
			return fmt.Errorf("spice: MOS %q has unknown parameter %q", fields[0], key)
		}
		if key == "l" {
			v *= 1e9 // meters in decks, nm in the model
		}
		*values[k].dst = v
		given[k] = true
	}
	if slices.Contains(given[4:], true) {
		for k := 4; k < len(values); k++ {
			if !given[k] {
				return fmt.Errorf("spice: MOS %q has extraction values but no %s (give dvth, dmu, ad, as, pd and ps together)",
					fields[0], values[k].key)
			}
		}
		m.Extracted = true
	}
	return deck.Netlist.Add(d)
}

func parseTwoTerm(deck *Deck, fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("spice: %q needs two nets and a value", fields[0])
	}
	v, err := units.Parse(fields[3])
	if err != nil {
		return fmt.Errorf("spice: %q value: %v", fields[0], err)
	}
	var typ circuit.DeviceType
	switch strings.ToLower(fields[0])[0] {
	case 'r':
		typ = circuit.Resistor
	case 'c':
		typ = circuit.Capacitor
	case 'l':
		typ = circuit.Inductor
	}
	return deck.Netlist.Add(&circuit.Device{Name: fields[0], Type: typ,
		Nets: []string{fields[1], fields[2]}, Value: v})
}

// parseSource handles V/I lines: name p n [DC v] [AC mag [phase]]
// [PULSE(...)|SIN(...)|PWL(...)] or a bare value.
func parseSource(deck *Deck, fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("spice: source %q needs two nets", fields[0])
	}
	var typ circuit.DeviceType
	if strings.ToLower(fields[0])[0] == 'v' {
		typ = circuit.VSource
	} else {
		typ = circuit.ISource
	}
	d := &circuit.Device{Name: fields[0], Type: typ,
		Nets: []string{fields[1], fields[2]}}

	rest := strings.Join(fields[3:], " ")
	toks, err := tokenizeSourceSpec(rest)
	if err != nil {
		return fmt.Errorf("spice: source %q: %v", fields[0], err)
	}
	i := 0
	//lint:allow ctxpoll bounded by the token count and i advances every iteration; parsing precedes solving
	for i < len(toks) {
		t := strings.ToLower(toks[i])
		switch {
		case t == "dc":
			if i+1 >= len(toks) {
				return fmt.Errorf("spice: source %q: DC needs a value", fields[0])
			}
			v, err := units.Parse(toks[i+1])
			if err != nil {
				return fmt.Errorf("spice: source %q: DC %q: %v", fields[0], toks[i+1], err)
			}
			d.DC = v
			i += 2
		case t == "ac":
			if i+1 >= len(toks) {
				return fmt.Errorf("spice: source %q: AC needs a magnitude", fields[0])
			}
			v, err := units.Parse(toks[i+1])
			if err != nil {
				return fmt.Errorf("spice: source %q: AC %q: %v", fields[0], toks[i+1], err)
			}
			d.ACMag = v
			i += 2
			if i < len(toks) {
				if ph, err := units.Parse(toks[i]); err == nil {
					d.ACPhase = ph
					i++
				}
			}
		case strings.HasPrefix(t, "pulse("), strings.HasPrefix(t, "sin("), strings.HasPrefix(t, "pwl("):
			kind := t[:strings.IndexByte(t, '(')]
			args, err := parseArgList(toks[i])
			if err != nil {
				return fmt.Errorf("spice: source %q: %v", fields[0], err)
			}
			w := &circuit.SourceWave{Kind: kind}
			if kind == "pwl" {
				if len(args)%2 != 0 || len(args) == 0 {
					return fmt.Errorf("spice: source %q: PWL needs time/value pairs", fields[0])
				}
				for k := 0; k < len(args); k += 2 {
					w.Times = append(w.Times, args[k])
					w.Vals = append(w.Vals, args[k+1])
				}
				d.DC = w.Vals[0]
			} else {
				w.Args = args
				if len(args) > 0 {
					d.DC = args[0]
				}
			}
			d.Wave = w
			i++
		default:
			// Bare leading value: DC.
			v, err := units.Parse(toks[i])
			if err != nil {
				return fmt.Errorf("spice: source %q: unexpected token %q: %v", fields[0], toks[i], err)
			}
			d.DC = v
			i++
		}
	}
	return deck.Netlist.Add(d)
}

// tokenizeSourceSpec splits a source specification, keeping
// parenthesized argument lists (possibly containing spaces) as single
// tokens.
func tokenizeSourceSpec(s string) ([]string, error) {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced ')'")
			}
		case ' ', '\t':
			if depth == 0 {
				if i > start {
					out = append(out, s[start:i])
				}
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced '('")
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out, nil
}

// parseArgList parses "kind(a b c)" or "kind(a,b,c)" into floats.
func parseArgList(tok string) ([]float64, error) {
	open := strings.IndexByte(tok, '(')
	close := strings.LastIndexByte(tok, ')')
	if open < 0 || close <= open {
		return nil, fmt.Errorf("bad argument list %q", tok)
	}
	body := strings.ReplaceAll(tok[open+1:close], ",", " ")
	var out []float64
	for _, f := range strings.Fields(body) {
		v, err := units.Parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseControlled(deck *Deck, fields []string) error {
	// Ename p n cp cn gain  /  Gname p n cp cn gm
	if len(fields) < 6 {
		return fmt.Errorf("spice: %q needs p n cp cn gain", fields[0])
	}
	gain, err := units.Parse(fields[5])
	if err != nil {
		return fmt.Errorf("spice: %q gain: %v", fields[0], err)
	}
	typ := circuit.VCVS
	if strings.ToLower(fields[0])[0] == 'g' {
		typ = circuit.VCCS
	}
	return deck.Netlist.Add(&circuit.Device{Name: fields[0], Type: typ,
		Nets: []string{fields[1], fields[2], fields[3], fields[4]}, Value: gain})
}

func parseSubcktInst(deck *Deck, params map[string]string, subckts map[string]*subcktDef,
	expanding []string, fields []string) error {
	// Xname net1 ... netN subcktname
	if len(fields) < 3 {
		return fmt.Errorf("spice: %q needs nets and a subckt name", fields[0])
	}
	name := strings.ToLower(fields[len(fields)-1])
	def, ok := subckts[name]
	if !ok {
		return fmt.Errorf("spice: unknown subckt %q", name)
	}
	// A definition that instantiates itself, directly or through
	// others, would expand without bound.
	for i, open := range expanding {
		if open == name {
			cycle := append(append([]string(nil), expanding[i:]...), name)
			return fmt.Errorf("spice: recursive .subckt %s", strings.Join(cycle, " -> "))
		}
	}
	actuals := fields[1 : len(fields)-1]
	if len(actuals) != len(def.ports) {
		return fmt.Errorf("spice: %q: %d nets for subckt %s with %d ports",
			fields[0], len(actuals), name, len(def.ports))
	}
	// Parse the body into its own netlist (local net names), then
	// merge it into the enclosing deck with the instance prefix and
	// the formal->actual port mapping. Nested X instances recurse
	// through the same path while building the body.
	body := &Deck{Netlist: circuit.New(name), ICs: make(map[string]float64)}
	expanding = append(expanding[:len(expanding):len(expanding)], name)
	for _, ln := range def.lines {
		lf := strings.Fields(ln)
		if len(lf) == 0 {
			continue
		}
		if strings.HasPrefix(lf[0], ".") {
			return fmt.Errorf("spice: directive %s not allowed inside .subckt %s", lf[0], name)
		}
		if err := parseLine(body, params, subckts, expanding, lf); err != nil {
			return fmt.Errorf("in subckt %s: %w", name, err)
		}
	}
	shared := make(map[string]string, len(def.ports))
	for i, p := range def.ports {
		shared[p] = circuit.NormalizeNet(actuals[i])
	}
	prefix := strings.ToLower(fields[0]) + "."
	if err := deck.Netlist.Merge(body.Netlist, prefix, shared); err != nil {
		return fmt.Errorf("spice: instantiating %s: %w", fields[0], err)
	}
	return nil
}
