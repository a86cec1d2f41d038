// Package circuit defines the netlist data model shared by the SPICE
// engine, the primitive library, extraction, and the layout flow:
// devices with named terminals on named nets, hierarchical subcircuits
// with flattening, and primitive annotations that mark which device
// groups form the leaf cells of the hierarchical layout flow (Fig. 1
// of the paper).
package circuit

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// DeviceType enumerates the supported element kinds.
type DeviceType int

// Device kinds. MOS terminals are ordered D, G, S, B; two-terminal
// elements are ordered +, -; controlled sources are out+, out-, in+,
// in-.
const (
	NMOS DeviceType = iota
	PMOS
	Resistor
	Capacitor
	Inductor
	VSource
	ISource
	VCVS // E element
	VCCS // G element
)

var typeNames = [...]string{
	"NMOS", "PMOS", "R", "C", "L", "V", "I", "E", "G",
}

func (t DeviceType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("DeviceType(%d)", int(t))
}

// NumTerminals returns how many nets a device of this type connects.
func (t DeviceType) NumTerminals() int {
	switch t {
	case NMOS, PMOS, VCVS, VCCS:
		return 4
	default:
		return 2
	}
}

// IsMOS reports whether the type is a transistor.
func (t DeviceType) IsMOS() bool { return t == NMOS || t == PMOS }

// SourceWave describes a time-varying source. Zero value means DC only.
type SourceWave struct {
	Kind  string    // "", "pulse", "sin", "pwl"
	Args  []float64 // pulse: v1 v2 td tr tf pw per; sin: vo va freq [td theta]
	Times []float64 // pwl time points
	Vals  []float64 // pwl values
}

// Device is one circuit element. Params carry numeric parameters:
// MOS: "nfin", "nf", "m", "l" (nm), plus LDE results "dvth" (V) and
// "dmu" (fractional mobility change) attached by extraction;
// R: "r"; C: "c"; L: "l"; V/I: "dc", "acmag", "acphase";
// E/G: "gain".
type Device struct {
	Name   string
	Type   DeviceType
	Nets   []string // terminal nets, order per DeviceType
	Params map[string]float64
	Wave   *SourceWave // optional, for V/I sources
}

// Param returns the named parameter or def when absent.
func (d *Device) Param(name string, def float64) float64 {
	if v, ok := d.Params[name]; ok {
		return v
	}
	return def
}

// SetParam assigns a parameter, allocating the map on first use.
func (d *Device) SetParam(name string, v float64) {
	if d.Params == nil {
		d.Params = make(map[string]float64)
	}
	d.Params[name] = v
}

// Clone returns a deep copy of the device.
func (d *Device) Clone() *Device {
	c := &Device{Name: d.Name, Type: d.Type}
	c.Nets = append([]string(nil), d.Nets...)
	if d.Params != nil {
		c.Params = make(map[string]float64, len(d.Params))
		for k, v := range d.Params {
			c.Params[k] = v
		}
	}
	if d.Wave != nil {
		w := *d.Wave
		w.Args = append([]float64(nil), d.Wave.Args...)
		w.Times = append([]float64(nil), d.Wave.Times...)
		w.Vals = append([]float64(nil), d.Wave.Vals...)
		c.Wave = &w
	}
	return c
}

// Primitive annotates a group of devices as one layout primitive (a
// leaf cell of the hierarchical flow): a differential pair, current
// mirror, etc. Devices are referred to by name within the owning
// netlist. Pins maps the primitive's port names (as the primitive
// library knows them) to netlist nets.
type Primitive struct {
	Name    string            // instance name, e.g. "dp0"
	Kind    string            // library kind, e.g. "diffpair"
	Devices []string          // member device names
	Pins    map[string]string // library port -> net
}

// Netlist is a flat circuit: a bag of devices plus primitive
// annotations. Net "0" (alias "gnd", "vss!") is ground.
type Netlist struct {
	Name       string
	Devices    []*Device
	Primitives []*Primitive

	byName map[string]*Device
}

// GroundNames are the aliases normalized to net "0".
var GroundNames = map[string]bool{"0": true, "gnd": true, "vss!": true}

// NormalizeNet maps ground aliases to "0" and lower-cases the name.
func NormalizeNet(n string) string {
	n = strings.ToLower(n)
	if GroundNames[n] {
		return "0"
	}
	return n
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]*Device)}
}

// Add appends a device, normalizing its net names. It returns an
// error on duplicate device names or terminal-count mismatch.
func (nl *Netlist) Add(d *Device) error {
	if len(d.Nets) != d.Type.NumTerminals() {
		return fmt.Errorf("circuit: device %s (%v) has %d terminals, want %d",
			d.Name, d.Type, len(d.Nets), d.Type.NumTerminals())
	}
	key := strings.ToLower(d.Name)
	if nl.byName == nil {
		nl.byName = make(map[string]*Device)
	}
	if _, dup := nl.byName[key]; dup {
		return fmt.Errorf("circuit: duplicate device %s", d.Name)
	}
	for i, n := range d.Nets {
		d.Nets[i] = NormalizeNet(n)
	}
	nl.Devices = append(nl.Devices, d)
	nl.byName[key] = d
	return nil
}

// MustAdd is Add that panics on error; for programmatic circuit
// construction where the inputs are literals. The panic marks a
// builder-misuse invariant (duplicate or malformed literal device),
// not a runtime condition — flow code assembling netlists from
// computed names must use Add and handle the error.
func (nl *Netlist) MustAdd(d *Device) {
	if err := nl.Add(d); err != nil {
		panic(err)
	}
}

// Device returns the named device (case-insensitive) or nil.
func (nl *Netlist) Device(name string) *Device {
	return nl.byName[strings.ToLower(name)]
}

// Remove deletes the named device; it reports whether it was present.
func (nl *Netlist) Remove(name string) bool {
	key := strings.ToLower(name)
	d, ok := nl.byName[key]
	if !ok {
		return false
	}
	delete(nl.byName, key)
	for i, dd := range nl.Devices {
		if dd == d {
			nl.Devices = append(nl.Devices[:i], nl.Devices[i+1:]...)
			break
		}
	}
	return true
}

// Nets returns the sorted set of net names in use, always including
// ground if any device touches it.
func (nl *Netlist) Nets() []string {
	set := make(map[string]bool)
	for _, d := range nl.Devices {
		for _, n := range d.Nets {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the netlist including annotations.
// The copy is built by direct construction rather than Add, so Clone
// never fails (or panics): it reproduces the source's device set and
// name index exactly as they stand.
func (nl *Netlist) Clone() *Netlist {
	c := New(nl.Name)
	for _, d := range nl.Devices {
		dd := d.Clone()
		c.Devices = append(c.Devices, dd)
		c.byName[strings.ToLower(dd.Name)] = dd
	}
	for _, p := range nl.Primitives {
		cp := &Primitive{Name: p.Name, Kind: p.Kind}
		cp.Devices = append([]string(nil), p.Devices...)
		cp.Pins = make(map[string]string, len(p.Pins))
		for k, v := range p.Pins {
			cp.Pins[k] = v
		}
		c.Primitives = append(c.Primitives, cp)
	}
	return c
}

// Extend returns a netlist that starts with nl's devices and
// annotations, the same pointers rather than copies, as they stand:
// what is added to either netlist later is its own. The shared
// devices must not be changed through either (SetParam, RenameNet),
// since both hold them.
func (nl *Netlist) Extend() *Netlist {
	return &Netlist{
		Name:       nl.Name,
		Devices:    slices.Clone(nl.Devices),
		Primitives: slices.Clone(nl.Primitives),
		byName:     maps.Clone(nl.byName),
	}
}

// Annotate records a primitive grouping. The member devices must
// exist; pins nets are normalized.
func (nl *Netlist) Annotate(p *Primitive) error {
	for _, dn := range p.Devices {
		if nl.Device(dn) == nil {
			return fmt.Errorf("circuit: primitive %s references unknown device %s", p.Name, dn)
		}
	}
	for k, v := range p.Pins {
		p.Pins[k] = NormalizeNet(v)
	}
	nl.Primitives = append(nl.Primitives, p)
	return nil
}

// RenameNet rewires every terminal on net old to net new (both
// normalized), including primitive pin annotations.
func (nl *Netlist) RenameNet(old, new string) {
	old, new = NormalizeNet(old), NormalizeNet(new)
	for _, d := range nl.Devices {
		for i, n := range d.Nets {
			if n == old {
				d.Nets[i] = new
			}
		}
	}
	for _, p := range nl.Primitives {
		for k, v := range p.Pins {
			if v == old {
				p.Pins[k] = new
			}
		}
	}
}

// Merge copies every device and primitive of other into nl with the
// given name prefix on devices, primitives, and all nets except ground
// and the nets listed in shared (already-normalized external nets).
func (nl *Netlist) Merge(other *Netlist, prefix string, shared map[string]string) error {
	mapNet := func(n string) string {
		if n == "0" {
			return n
		}
		if ext, ok := shared[n]; ok {
			return ext
		}
		return prefix + n
	}
	for _, d := range other.Devices {
		c := d.Clone()
		c.Name = prefix + d.Name
		for i, n := range c.Nets {
			c.Nets[i] = mapNet(n)
		}
		if err := nl.Add(c); err != nil {
			return err
		}
	}
	for _, p := range other.Primitives {
		cp := &Primitive{Name: prefix + p.Name, Kind: p.Kind}
		for _, dn := range p.Devices {
			cp.Devices = append(cp.Devices, prefix+dn)
		}
		cp.Pins = make(map[string]string, len(p.Pins))
		for k, v := range p.Pins {
			cp.Pins[k] = mapNet(v)
		}
		nl.Primitives = append(nl.Primitives, cp)
	}
	return nil
}

// Stats summarizes the netlist for reports.
func (nl *Netlist) Stats() string {
	mos, pas, src := 0, 0, 0
	for _, d := range nl.Devices {
		switch {
		case d.Type.IsMOS():
			mos++
		case d.Type == VSource || d.Type == ISource || d.Type == VCVS || d.Type == VCCS:
			src++
		default:
			pas++
		}
	}
	return fmt.Sprintf("%s: %d devices (%d MOS, %d passive, %d source), %d nets, %d primitives",
		nl.Name, len(nl.Devices), mos, pas, src, len(nl.Nets()), len(nl.Primitives))
}
