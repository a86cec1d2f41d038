// Package circuit defines the netlist data model shared by the SPICE
// engine, the primitive library, extraction, and the layout flow:
// devices with named terminals on named nets, hierarchical subcircuits
// with flattening, and primitive annotations that mark which device
// groups form the leaf cells of the hierarchical layout flow (Fig. 1
// of the paper).
package circuit

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
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

// Device is one circuit element. Its values are typed by kind, and
// each kind reads only its own:
//   - NMOS, PMOS: MOS, the geometry and the values extraction adds;
//   - R, C, L: Value, in Ω, F and H; E and G: Value, the gain (V/V,
//     A/V);
//   - V, I: DC, the AC magnitude ACMag and phase ACPhase (degrees),
//     and the optional transient Wave.
type Device struct {
	Name  string
	Type  DeviceType
	Nets  []string // terminal nets, order per DeviceType
	MOS   MOS
	Value float64

	DC, ACMag, ACPhase float64
	Wave               *SourceWave
}

// MOS holds a transistor's values. NFin, NF and M are the fins per
// finger, the fingers and the parallel copies, and L the drawn gate
// length in nm (the technology's when not positive). Extraction sets
// the layout-dependent values as one group, marked by Extracted: the
// threshold shift DVth (V), the mobility factor DMu, and the drain and
// source diffusion areas AD and AS (nm²) and perimeters PD and PS
// (nm). Without them a device has no shift and the idealized shared
// diffusion.
type MOS struct {
	NFin, NF, M, L            float64
	Extracted                 bool
	DVth, DMu, AD, AS, PD, PS float64
}

// Clone returns a deep copy of the device.
func (d *Device) Clone() *Device {
	c := *d
	c.Nets = append([]string(nil), d.Nets...)
	if d.Wave != nil {
		w := *d.Wave
		w.Args = append([]float64(nil), d.Wave.Args...)
		w.Times = append([]float64(nil), d.Wave.Times...)
		w.Vals = append([]float64(nil), d.Wave.Vals...)
		c.Wave = &w
	}
	return &c
}

// KeyValue is one of a device's values under its name in a SPICE
// deck.
type KeyValue struct {
	Key string
	Val float64
}

// AppendValues appends d's values to dst under their deck names, in
// sorted name order: a MOS's geometry ("l", "m", "nf", "nfin") and,
// when extracted, the extraction's ("ad", "as", "dmu", "dvth", "pd",
// "ps"); the one value of R ("r"), C ("c"), L ("l"), E and G
// ("gain"); a source's "dc", and its "acmag" and "acphase" where not
// zero.
func (d *Device) AppendValues(dst []KeyValue) []KeyValue {
	switch d.Type {
	case NMOS, PMOS:
		m := &d.MOS
		if !m.Extracted {
			return append(dst, KeyValue{"l", m.L}, KeyValue{"m", m.M}, KeyValue{"nf", m.NF}, KeyValue{"nfin", m.NFin})
		}
		return append(dst, KeyValue{"ad", m.AD}, KeyValue{"as", m.AS}, KeyValue{"dmu", m.DMu},
			KeyValue{"dvth", m.DVth}, KeyValue{"l", m.L}, KeyValue{"m", m.M}, KeyValue{"nf", m.NF},
			KeyValue{"nfin", m.NFin}, KeyValue{"pd", m.PD}, KeyValue{"ps", m.PS})
	case Resistor:
		return append(dst, KeyValue{"r", d.Value})
	case Capacitor:
		return append(dst, KeyValue{"c", d.Value})
	case Inductor:
		return append(dst, KeyValue{"l", d.Value})
	case VCVS, VCCS:
		return append(dst, KeyValue{"gain", d.Value})
	case VSource, ISource:
		if d.ACMag != 0 {
			dst = append(dst, KeyValue{"acmag", d.ACMag})
		}
		if d.ACPhase != 0 {
			dst = append(dst, KeyValue{"acphase", d.ACPhase})
		}
		return append(dst, KeyValue{"dc", d.DC})
	}
	return dst
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
// annotations. Net "0" (alias "gnd", "vss!") is ground. A netlist
// indexes its devices by name, and keeps the sorted set of their nets,
// as they are added; so a device's nets change through RenameNet, not
// by writing Nets in place.
type Netlist struct {
	Name       string
	Devices    []*Device
	Primitives []*Primitive

	idx *layer // nil until the first Add
}

// layer is one level of a netlist's index: the devices added while it
// was the top level, sorted by lower-cased name, and the nets they
// brought that no level below holds, sorted. Extend freezes the top
// level, and a frozen level never changes again: the netlist and its
// extension both hold it, and each adds to a level of its own above
// it. Sorted slices, not maps, keep an extension's own level cheap.
type layer struct {
	below  *layer
	devs   []*Device
	nets   []string
	frozen bool
}

// extendRoom is the room an extension leaves after its base's devices
// for its own, enough for any primitive testbench deck.
const extendRoom = 16

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
	return &Netlist{Name: name}
}

// Add appends a device, normalizing its net names. It returns an
// error on duplicate device names or terminal-count mismatch.
func (nl *Netlist) Add(d *Device) error {
	if len(d.Nets) != d.Type.NumTerminals() {
		return fmt.Errorf("circuit: device %s (%v) has %d terminals, want %d",
			d.Name, d.Type, len(d.Nets), d.Type.NumTerminals())
	}
	if nl.Device(d.Name) != nil {
		return fmt.Errorf("circuit: duplicate device %s", d.Name)
	}
	for i, n := range d.Nets {
		d.Nets[i] = NormalizeNet(n)
	}
	nl.Devices = append(nl.Devices, d)
	nl.top().index(d)
	return nil
}

// top returns the level that takes additions, opening a new one when
// there is none or the top is frozen.
func (nl *Netlist) top() *layer {
	if nl.idx == nil || nl.idx.frozen {
		nl.idx = &layer{below: nl.idx, devs: make([]*Device, 0, 8), nets: make([]string, 0, 8)}
	}
	return nl.idx
}

// index records d, already in the netlist, in level l.
func (l *layer) index(d *Device) {
	i, _ := l.find(d.Name)
	l.devs = slices.Insert(l.devs, i, d)
	for _, n := range d.Nets {
		l.addNet(n)
	}
}

// find returns the position of the device named name
// (case-insensitive) in l's devices, or where it would go.
func (l *layer) find(name string) (int, bool) {
	return slices.BinarySearchFunc(l.devs, name, func(d *Device, name string) int {
		return compareFold(d.Name, name)
	})
}

// compareFold orders names as strings.ToLower of each orders them,
// without building either for an ASCII name.
func compareFold(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := a[i], b[i]
		if ca >= utf8.RuneSelf || cb >= utf8.RuneSelf {
			return strings.Compare(strings.ToLower(a[i:]), strings.ToLower(b[i:]))
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	return cmp.Compare(len(a), len(b))
}

// addNet adds n to l's nets unless a level holds it.
func (l *layer) addNet(n string) {
	for b := l.below; b != nil; b = b.below {
		if _, ok := slices.BinarySearch(b.nets, n); ok {
			return
		}
	}
	if i, ok := slices.BinarySearch(l.nets, n); !ok {
		l.nets = slices.Insert(l.nets, i, n)
	}
}

// reindex rebuilds the index from Devices as one level of nl's own,
// after an edit that is not an addition.
func (nl *Netlist) reindex() {
	nl.idx = nil
	for _, d := range nl.Devices {
		nl.top().index(d)
	}
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
	for l := nl.idx; l != nil; l = l.below {
		if i, ok := l.find(name); ok {
			return l.devs[i]
		}
	}
	return nil
}

// Remove deletes the named device; it reports whether it was present.
func (nl *Netlist) Remove(name string) bool {
	d := nl.Device(name)
	if d == nil {
		return false
	}
	i := slices.Index(nl.Devices, d)
	nl.Devices = slices.Delete(nl.Devices, i, i+1)
	nl.reindex()
	return true
}

// Nets returns the sorted set of net names in use, always including
// ground if any device touches it. The slice is the caller's.
func (nl *Netlist) Nets() []string {
	n := 0
	for l := nl.idx; l != nil; l = l.below {
		n += len(l.nets)
	}
	out := make([]string, 0, n)
	for l := nl.idx; l != nil; l = l.below {
		out = mergeSorted(out, l.nets)
	}
	return out
}

// mergeSorted merges the sorted b, which shares no element with the
// sorted a, into a, in place when a has the room.
func mergeSorted(a, b []string) []string {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

// Clone returns a deep copy of the netlist including annotations.
// The copy is built by direct construction rather than Add, so Clone
// never fails (or panics): it reproduces the source's device set and
// name index exactly as they stand.
func (nl *Netlist) Clone() *Netlist {
	c := New(nl.Name)
	c.Devices = make([]*Device, len(nl.Devices))
	for i, d := range nl.Devices {
		c.Devices[i] = d.Clone()
	}
	c.reindex()
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
// what is added to either netlist later is its own. The extension
// shares nl's name index and net set, which Extend freezes, and indexes
// only its own additions. The shared devices must not be changed
// through either (a field write, RenameNet), since both hold them.
func (nl *Netlist) Extend() *Netlist {
	if nl.idx != nil {
		nl.idx.frozen = true
	}
	return &Netlist{
		Name:       nl.Name,
		Devices:    append(make([]*Device, 0, len(nl.Devices)+extendRoom), nl.Devices...),
		Primitives: slices.Clone(nl.Primitives),
		idx:        nl.idx,
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
	nl.reindex()
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
