package circuit

import "fmt"

// Builder provides a fluent programmatic construction API used by the
// benchmark circuits and tests; it panics on malformed input (these
// circuits are compiled-in literals, so errors are programming bugs).
type Builder struct {
	nl  *Netlist
	seq int
}

// NewBuilder starts a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{nl: New(name)}
}

// Netlist returns the accumulated netlist.
func (b *Builder) Netlist() *Netlist { return b.nl }

func (b *Builder) autoName(prefix string) string {
	b.seq++
	return fmt.Sprintf("%s%d", prefix, b.seq)
}

// MOS adds a FinFET. l is drawn gate length in nm.
func (b *Builder) MOS(name string, t DeviceType, d, g, s, bulk string, nfin, nf, m int, l int64) *Builder {
	if !t.IsMOS() {
		//lint:allow errflow builder invariant (see Netlist.MustAdd doc): literal misuse panics at construction time, never at runtime
		panic("circuit: MOS builder with non-MOS type")
	}
	dev := &Device{Name: name, Type: t, Nets: []string{d, g, s, bulk},
		MOS: MOS{NFin: float64(nfin), NF: float64(nf), M: float64(m), L: float64(l)}}
	b.nl.MustAdd(dev)
	return b
}

// R adds a resistor of r ohms.
func (b *Builder) R(name, p, n string, r float64) *Builder {
	if name == "" {
		name = b.autoName("r")
	}
	dev := &Device{Name: name, Type: Resistor, Nets: []string{p, n}, Value: r}
	b.nl.MustAdd(dev)
	return b
}

// C adds a capacitor of c farads.
func (b *Builder) C(name, p, n string, c float64) *Builder {
	if name == "" {
		name = b.autoName("c")
	}
	dev := &Device{Name: name, Type: Capacitor, Nets: []string{p, n}, Value: c}
	b.nl.MustAdd(dev)
	return b
}

// L adds an inductor of l henries.
func (b *Builder) L(name, p, n string, l float64) *Builder {
	if name == "" {
		name = b.autoName("l")
	}
	dev := &Device{Name: name, Type: Inductor, Nets: []string{p, n}, Value: l}
	b.nl.MustAdd(dev)
	return b
}

// V adds a DC voltage source with optional AC magnitude.
func (b *Builder) V(name, p, n string, dc float64) *Builder {
	b.nl.MustAdd(&Device{Name: name, Type: VSource, Nets: []string{p, n}, DC: dc})
	return b
}

// VAC adds a voltage source with DC value and AC magnitude (phase 0).
func (b *Builder) VAC(name, p, n string, dc, acmag float64) *Builder {
	b.nl.MustAdd(&Device{Name: name, Type: VSource, Nets: []string{p, n}, DC: dc, ACMag: acmag})
	return b
}

// VPulse adds a pulse voltage source (v1, v2, delay, rise, fall,
// width, period — seconds).
func (b *Builder) VPulse(name, p, n string, v1, v2, td, tr, tf, pw, per float64) *Builder {
	dev := &Device{Name: name, Type: VSource, Nets: []string{p, n}, DC: v1,
		Wave: &SourceWave{Kind: "pulse", Args: []float64{v1, v2, td, tr, tf, pw, per}}}
	b.nl.MustAdd(dev)
	return b
}

// VSin adds a sinusoidal voltage source (offset, amplitude, freq).
func (b *Builder) VSin(name, p, n string, vo, va, freq float64) *Builder {
	dev := &Device{Name: name, Type: VSource, Nets: []string{p, n}, DC: vo,
		Wave: &SourceWave{Kind: "sin", Args: []float64{vo, va, freq}}}
	b.nl.MustAdd(dev)
	return b
}

// VPWL adds a piecewise-linear voltage source.
func (b *Builder) VPWL(name, p, n string, times, vals []float64) *Builder {
	if len(times) != len(vals) || len(times) == 0 {
		//lint:allow errflow builder invariant (see Netlist.MustAdd doc): literal misuse panics at construction time, never at runtime
		panic("circuit: VPWL needs matching non-empty times/vals")
	}
	dev := &Device{Name: name, Type: VSource, Nets: []string{p, n}, DC: vals[0],
		Wave: &SourceWave{Kind: "pwl",
			Times: append([]float64(nil), times...),
			Vals:  append([]float64(nil), vals...)}}
	b.nl.MustAdd(dev)
	return b
}

// I adds a DC current source flowing from p through the source to n.
func (b *Builder) I(name, p, n string, dc float64) *Builder {
	b.nl.MustAdd(&Device{Name: name, Type: ISource, Nets: []string{p, n}, DC: dc})
	return b
}

// E adds a voltage-controlled voltage source.
func (b *Builder) E(name, p, n, cp, cn string, gain float64) *Builder {
	b.nl.MustAdd(&Device{Name: name, Type: VCVS, Nets: []string{p, n, cp, cn}, Value: gain})
	return b
}

// G adds a voltage-controlled current source (transconductance gain,
// A/V, current flows p→n inside the source for positive control).
func (b *Builder) G(name, p, n, cp, cn string, gain float64) *Builder {
	b.nl.MustAdd(&Device{Name: name, Type: VCCS, Nets: []string{p, n, cp, cn}, Value: gain})
	return b
}

// Primitive annotates previously added devices as a layout primitive.
func (b *Builder) Primitive(name, kind string, devices []string, pins map[string]string) *Builder {
	if err := b.nl.Annotate(&Primitive{Name: name, Kind: kind, Devices: devices, Pins: pins}); err != nil {
		//lint:allow errflow builder invariant (see Netlist.MustAdd doc): literal misuse panics at construction time, never at runtime
		panic(err)
	}
	return b
}
