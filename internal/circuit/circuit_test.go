package circuit

import (
	"fmt"
	"strings"
	"testing"
)

func sampleNetlist(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("sample")
	b.V("vdd", "vdd", "0", 0.8).
		MOS("m1", NMOS, "out", "in", "0", "0", 8, 4, 1, 14).
		MOS("m2", PMOS, "out", "bias", "vdd", "vdd", 8, 4, 1, 14).
		R("r1", "out", "vdd", 1e3).
		C("c1", "out", "0", 1e-15)
	return b.Netlist()
}

func TestAddAndLookup(t *testing.T) {
	nl := sampleNetlist(t)
	if nl.Device("M1") == nil {
		t.Error("case-insensitive lookup failed")
	}
	if nl.Device("nosuch") != nil {
		t.Error("phantom device found")
	}
	if len(nl.Devices) != 5 {
		t.Errorf("device count = %d", len(nl.Devices))
	}
}

func TestDuplicateRejected(t *testing.T) {
	nl := New("x")
	d := &Device{Name: "r1", Type: Resistor, Nets: []string{"a", "b"}}
	if err := nl.Add(d); err != nil {
		t.Fatal(err)
	}
	dup := &Device{Name: "R1", Type: Resistor, Nets: []string{"c", "d"}}
	if err := nl.Add(dup); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
}

func TestTerminalCountChecked(t *testing.T) {
	nl := New("x")
	bad := &Device{Name: "m1", Type: NMOS, Nets: []string{"d", "g", "s"}}
	if err := nl.Add(bad); err == nil {
		t.Error("3-terminal MOS accepted")
	}
}

func TestGroundNormalization(t *testing.T) {
	nl := New("x")
	nl.MustAdd(&Device{Name: "r1", Type: Resistor, Nets: []string{"A", "GND"}})
	nl.MustAdd(&Device{Name: "r2", Type: Resistor, Nets: []string{"a", "VSS!"}})
	d := nl.Device("r1")
	if d.Nets[0] != "a" || d.Nets[1] != "0" {
		t.Errorf("nets = %v", d.Nets)
	}
	if nl.Device("r2").Nets[1] != "0" {
		t.Error("vss! not normalized")
	}
	nets := nl.Nets()
	if len(nets) != 2 || nets[0] != "0" || nets[1] != "a" {
		t.Errorf("Nets = %v", nets)
	}
}

// primitiveNamed returns nl's annotation called name, or nil.
func primitiveNamed(nl *Netlist, name string) *Primitive {
	for _, p := range nl.Primitives {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// devicesOn counts nl's devices with a terminal on net n.
func devicesOn(nl *Netlist, n string) int {
	count := 0
	for _, d := range nl.Devices {
		for _, dn := range d.Nets {
			if dn == n {
				count++
				break
			}
		}
	}
	return count
}

func TestCloneIndependence(t *testing.T) {
	nl := sampleNetlist(t)
	if err := nl.Annotate(&Primitive{Name: "p1", Kind: "csamp", Devices: []string{"m1"},
		Pins: map[string]string{"out": "OUT"}}); err != nil {
		t.Fatal(err)
	}
	c := nl.Clone()
	c.Device("m1").MOS.NFin = 99
	c.Device("m1").Nets[0] = "changed"
	c.Primitives[0].Pins["out"] = "changed"
	if nl.Device("m1").MOS.NFin == 99 {
		t.Error("clone shares values")
	}
	if nl.Device("m1").Nets[0] == "changed" {
		t.Error("clone shares nets")
	}
	if nl.Primitives[0].Pins["out"] != "out" {
		t.Error("clone shares primitive pins / pin not normalized")
	}
}

// TestExtendSharesDevices checks that an extended netlist holds its
// base's devices, the same pointers, and that later additions to
// either stay out of the other, in names and in nets, duplicates of
// shared names included.
func TestExtendSharesDevices(t *testing.T) {
	base := sampleNetlist(t)
	ext := base.Extend()
	for i, d := range base.Devices {
		if ext.Devices[i] != d {
			t.Errorf("device %d: %s is a copy, want %s shared", i, ext.Devices[i].Name, d.Name)
		}
	}
	if err := ext.Add(&Device{Name: "R1", Type: Resistor, Nets: []string{"a", "0"}}); err == nil {
		t.Error("a duplicate of a shared name was added")
	}
	if err := ext.Add(&Device{Name: "r2", Type: Resistor, Nets: []string{"A", "0"}}); err != nil {
		t.Fatal(err)
	}
	base.MustAdd(&Device{Name: "r3", Type: Resistor, Nets: []string{"b", "0"}})
	if ext.Device("r2") == nil || base.Device("r2") != nil || ext.Device("r3") != nil ||
		len(ext.Devices) != 6 || len(base.Devices) != 6 {
		t.Errorf("additions leaked: base %d devices, extension %d", len(base.Devices), len(ext.Devices))
	}
	// A name the base took after the extension is still free there,
	// and one the extension took is still free in the base.
	if err := ext.Add(&Device{Name: "R3", Type: Resistor, Nets: []string{"c", "0"}}); err != nil {
		t.Errorf("the base's later name taken in the extension: %v", err)
	}
	if err := base.Add(&Device{Name: "R2", Type: Resistor, Nets: []string{"d", "0"}}); err != nil {
		t.Errorf("the extension's name taken in the base: %v", err)
	}
	if got, want := strings.Join(base.Nets(), " "), "0 b bias d in out vdd"; got != want {
		t.Errorf("base nets %q, want %q", got, want)
	}
	if got, want := strings.Join(ext.Nets(), " "), "0 a bias c in out vdd"; got != want {
		t.Errorf("extension nets %q, want %q", got, want)
	}
	// An extension of an extension sees both levels below it.
	ext2 := ext.Extend()
	ext2.MustAdd(&Device{Name: "r9", Type: Resistor, Nets: []string{"aa", "0"}})
	if ext2.Device("R1") == nil || ext2.Device("r2") == nil || ext2.Device("r9") == nil || ext.Device("r9") != nil {
		t.Error("a second extension does not see its levels")
	}
	if got, want := strings.Join(ext2.Nets(), " "), "0 a aa bias c in out vdd"; got != want {
		t.Errorf("second extension nets %q, want %q", got, want)
	}
}

func TestAnnotateValidation(t *testing.T) {
	nl := sampleNetlist(t)
	err := nl.Annotate(&Primitive{Name: "bad", Kind: "dp", Devices: []string{"ghost"}})
	if err == nil {
		t.Error("annotation with unknown device accepted")
	}
	if err := nl.Annotate(&Primitive{Name: "ok", Kind: "dp", Devices: []string{"m1", "m2"},
		Pins: map[string]string{"d": "OUT"}}); err != nil {
		t.Fatal(err)
	}
	p := primitiveNamed(nl, "ok")
	if p == nil || p.Pins["d"] != "out" {
		t.Error("primitive lookup/normalization failed")
	}
	if primitiveNamed(nl, "nope") != nil {
		t.Error("phantom primitive")
	}
}

func TestRenameNet(t *testing.T) {
	nl := sampleNetlist(t)
	if err := nl.Annotate(&Primitive{Name: "p", Kind: "k", Devices: []string{"m1"},
		Pins: map[string]string{"d": "out"}}); err != nil {
		t.Fatal(err)
	}
	nl.RenameNet("OUT", "vo")
	if devicesOn(nl, "out") != 0 {
		t.Error("old net still connected")
	}
	if devicesOn(nl, "vo") != 4 {
		t.Error("new net not connected")
	}
	if nl.Primitives[0].Pins["d"] != "vo" {
		t.Error("primitive pin not renamed")
	}
}

func TestRemove(t *testing.T) {
	nl := sampleNetlist(t)
	if !nl.Remove("R1") {
		t.Error("remove failed")
	}
	if nl.Remove("r1") {
		t.Error("double remove succeeded")
	}
	if nl.Device("r1") != nil || len(nl.Devices) != 4 {
		t.Error("device still present")
	}
}

func TestMerge(t *testing.T) {
	inner := NewBuilder("inner").
		R("rload", "port", "mid", 100).
		C("cload", "mid", "0", 1e-15).
		Netlist()
	if err := inner.Annotate(&Primitive{Name: "pr", Kind: "load", Devices: []string{"rload"},
		Pins: map[string]string{"a": "port"}}); err != nil {
		t.Fatal(err)
	}
	top := sampleNetlist(t)
	err := top.Merge(inner, "x1_", map[string]string{"port": "out"})
	if err != nil {
		t.Fatal(err)
	}
	d := top.Device("x1_rload")
	if d == nil {
		t.Fatal("merged device missing")
	}
	if d.Nets[0] != "out" {
		t.Errorf("shared net not mapped: %v", d.Nets)
	}
	if d.Nets[1] != "x1_mid" {
		t.Errorf("internal net not prefixed: %v", d.Nets)
	}
	if top.Device("x1_cload").Nets[1] != "0" {
		t.Error("ground must not be prefixed")
	}
	p := primitiveNamed(top, "x1_pr")
	if p == nil || p.Pins["a"] != "out" || p.Devices[0] != "x1_rload" {
		t.Errorf("merged primitive wrong: %+v", p)
	}
	// Merging the same prefix again collides.
	if err := top.Merge(inner, "x1_", nil); err == nil {
		t.Error("duplicate merge accepted")
	}
}

// TestDeviceValues checks which values a device of each kind lists,
// under which names and in which order: the extraction's group only
// when extracted, and a source's AC magnitude and phase only when not
// zero.
func TestDeviceValues(t *testing.T) {
	list := func(d *Device) string {
		var out []string
		for _, kv := range d.AppendValues(nil) {
			out = append(out, fmt.Sprintf("%s=%g", kv.Key, kv.Val))
		}
		return strings.Join(out, " ")
	}
	mos := MOS{NFin: 4, NF: 2, M: 3, L: 14, DVth: 0.01, DMu: 0.9, AD: 1, AS: 2, PD: 3, PS: 4}
	for _, c := range []struct {
		d    Device
		want string
	}{
		{Device{Type: NMOS, MOS: mos}, "l=14 m=3 nf=2 nfin=4"},
		{Device{Type: PMOS, MOS: func() MOS { m := mos; m.Extracted = true; return m }()},
			"ad=1 as=2 dmu=0.9 dvth=0.01 l=14 m=3 nf=2 nfin=4 pd=3 ps=4"},
		{Device{Type: Resistor, Value: 5}, "r=5"},
		{Device{Type: Capacitor, Value: 5}, "c=5"},
		{Device{Type: Inductor, Value: 5}, "l=5"},
		{Device{Type: VCVS, Value: 5}, "gain=5"},
		{Device{Type: VCCS, Value: 5}, "gain=5"},
		{Device{Type: VSource, DC: 0.5}, "dc=0.5"},
		{Device{Type: VSource, DC: 0.5, ACMag: 1}, "acmag=1 dc=0.5"},
		{Device{Type: ISource, ACMag: 1, ACPhase: 90}, "acmag=1 acphase=90 dc=0"},
		{Device{Type: ISource, ACPhase: 90}, "acphase=90 dc=0"},
	} {
		if got := list(&c.d); got != c.want {
			t.Errorf("%v: %q, want %q", c.d.Type, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	s := sampleNetlist(t).Stats()
	for _, want := range []string{"sample", "5 devices", "2 MOS", "2 passive", "1 source"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats %q missing %q", s, want)
		}
	}
}

func TestDeviceTypeBasics(t *testing.T) {
	if NMOS.String() != "NMOS" || Resistor.String() != "R" {
		t.Error("type names wrong")
	}
	if !NMOS.IsMOS() || !PMOS.IsMOS() || Resistor.IsMOS() {
		t.Error("IsMOS wrong")
	}
	if NMOS.NumTerminals() != 4 || Capacitor.NumTerminals() != 2 || VCCS.NumTerminals() != 4 {
		t.Error("terminal counts wrong")
	}
}

func TestBuilderWaveforms(t *testing.T) {
	b := NewBuilder("w")
	b.VPulse("vp", "a", "0", 0, 0.8, 1e-9, 10e-12, 10e-12, 1e-9, 2e-9)
	b.VSin("vs", "b", "0", 0.4, 0.1, 1e9)
	b.VPWL("vw", "c", "0", []float64{0, 1e-9}, []float64{0, 0.8})
	nl := b.Netlist()
	if nl.Device("vp").Wave.Kind != "pulse" || len(nl.Device("vp").Wave.Args) != 7 {
		t.Error("pulse wave wrong")
	}
	if nl.Device("vs").Wave.Kind != "sin" {
		t.Error("sin wave wrong")
	}
	w := nl.Device("vw").Wave
	if w.Kind != "pwl" || len(w.Times) != 2 || nl.Device("vw").DC != 0 {
		t.Error("pwl wave wrong")
	}
}

func TestBuilderPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("non-MOS MOS", func() {
		NewBuilder("x").MOS("m", Resistor, "a", "b", "c", "d", 1, 1, 1, 14)
	})
	assertPanic("bad pwl", func() {
		NewBuilder("x").VPWL("v", "a", "0", []float64{0}, []float64{0, 1})
	})
	assertPanic("dup via builder", func() {
		NewBuilder("x").R("r1", "a", "b", 1).R("r1", "c", "d", 1)
	})
}

func TestBuilderAutoNames(t *testing.T) {
	b := NewBuilder("x")
	b.R("", "a", "b", 1).R("", "b", "c", 1).C("", "c", "0", 1e-15)
	nl := b.Netlist()
	if len(nl.Devices) != 3 {
		t.Errorf("auto-named devices = %d", len(nl.Devices))
	}
}
