package spice

import (
	"context"
	"math"
	"strings"
	"testing"

	"primopt/internal/circuit"
)

func TestParseBasicDeck(t *testing.T) {
	src := `simple divider
* a comment
V1 in 0 DC 1.0
R1 in mid 1k
R2 mid 0 1k  $ inline comment
.op
.end
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Title != "simple divider" {
		t.Errorf("title = %q", deck.Title)
	}
	if len(deck.Netlist.Devices) != 3 {
		t.Fatalf("devices = %d", len(deck.Netlist.Devices))
	}
	if len(deck.Analyses) != 1 || deck.Analyses[0].Kind != "op" {
		t.Errorf("analyses = %+v", deck.Analyses)
	}
	r := deck.Netlist.Device("r1")
	if r == nil || r.Value != 1000 {
		t.Errorf("R1 wrong: %+v", r)
	}
}

func TestParseContinuationLines(t *testing.T) {
	src := `V1 in 0 DC 0.5
+ AC 1 45
R1 in 0 1k
.op
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	v := deck.Netlist.Device("v1")
	if v.DC != 0.5 || v.ACMag != 1 || v.ACPhase != 45 {
		t.Errorf("v1 values wrong: %+v", v)
	}
}

func TestParseMOSLine(t *testing.T) {
	src := `M1 d g 0 0 nmos nfin=8 nf=4 m=2 l=14n
Vd d 0 0.8
Vg g 0 0.5
.op
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	m := deck.Netlist.Device("m1")
	if m == nil || m.Type != circuit.NMOS {
		t.Fatal("M1 missing or wrong type")
	}
	if m.MOS.NFin != 8 || m.MOS.NF != 4 || m.MOS.M != 2 || m.MOS.Extracted {
		t.Errorf("geometry values wrong: %+v", m.MOS)
	}
	// l given in meters (14n) converts to nm.
	if got := m.MOS.L; math.Abs(got-14) > 1e-9 {
		t.Errorf("l = %g nm, want 14", got)
	}

	// Absent geometry is one fin, finger and copy at the technology's
	// length; the extraction's values come as a group.
	deck, err = ParseDeck("M2 d g 0 0 pmos dvth=0.01 dmu=0.9 ad=1 as=2 pd=3 ps=4\nVd d 0 0.8\n")
	if err != nil {
		t.Fatal(err)
	}
	want := circuit.MOS{NFin: 1, NF: 1, M: 1, Extracted: true, DVth: 0.01, DMu: 0.9, AD: 1, AS: 2, PD: 3, PS: 4}
	if got := deck.Netlist.Device("m2").MOS; got != want {
		t.Errorf("M2 values %+v, want %+v", got, want)
	}
}

func TestParseSourceWaveforms(t *testing.T) {
	src := `V1 a 0 PULSE(0 0.8 1n 10p 10p 1n 2n)
V2 b 0 SIN(0.4 0.1 1g)
V3 c 0 PWL(0 0 1n 0.8 2n 0.4)
V4 d 0 0.8
I1 0 e DC 10u AC 1
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
R5 e 0 1k
.op
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	nl := deck.Netlist
	if w := nl.Device("v1").Wave; w == nil || w.Kind != "pulse" || len(w.Args) != 7 {
		t.Errorf("pulse wrong: %+v", w)
	}
	if w := nl.Device("v2").Wave; w == nil || w.Kind != "sin" || w.Args[2] != 1e9 {
		t.Errorf("sin wrong: %+v", w)
	}
	w := nl.Device("v3").Wave
	if w == nil || w.Kind != "pwl" || len(w.Times) != 3 || w.Vals[1] != 0.8 {
		t.Errorf("pwl wrong: %+v", w)
	}
	if nl.Device("v4").DC != 0.8 {
		t.Error("bare DC value not parsed")
	}
	i1 := nl.Device("i1")
	if math.Abs(i1.DC-10e-6) > 1e-18 || i1.ACMag != 1 {
		t.Errorf("I1 values: %+v", i1)
	}
}

func TestParseSubckt(t *testing.T) {
	src := `subckt test
X1 in out vdd loadinv
X2 out out2 vdd loadinv
Vdd vdd 0 0.8
Vin in 0 0.2
.subckt loadinv a y vdd
M1 y a 0 0 nmos nfin=4 nf=1 m=1
R1 vdd y 10k
.ends
.op
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	nl := deck.Netlist
	// Two instances -> 2 MOS + 2 R + 2 V sources.
	if len(nl.Devices) != 6 {
		t.Fatalf("devices = %d: %s", len(nl.Devices), nl.Stats())
	}
	m1 := nl.Device("x1.m1")
	if m1 == nil {
		t.Fatal("x1.m1 missing")
	}
	if m1.Nets[0] != "out" || m1.Nets[1] != "in" || m1.Nets[2] != "0" {
		t.Errorf("x1.m1 nets = %v", m1.Nets)
	}
	// The chain: x2 input is x1 output.
	m2 := nl.Device("x2.m1")
	if m2.Nets[1] != "out" || m2.Nets[0] != "out2" {
		t.Errorf("x2.m1 nets = %v", m2.Nets)
	}
	// Shared vdd port.
	if nl.Device("x1.r1").Nets[0] != "vdd" {
		t.Errorf("x1.r1 nets = %v", nl.Device("x1.r1").Nets)
	}
	// It actually simulates.
	e := mustEngine(t, nl)
	if _, err := e.OP(); err != nil {
		t.Fatalf("subckt deck OP: %v", err)
	}
}

func TestParseNestedSubckt(t *testing.T) {
	src := `nested
X1 a vdd top
Vdd vdd 0 0.8
Va a 0 0.3
.subckt inner p q
R1 p q 1k
.ends
.subckt top x vdd
Xi x mid inner
R2 mid 0 2k
R3 vdd x 1k
.ends
.op
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	r1 := deck.Netlist.Device("x1.xi.r1")
	if r1 == nil {
		t.Fatalf("nested device missing; have %s", deck.Netlist.Stats())
	}
	if r1.Nets[0] != "a" || r1.Nets[1] != "x1.mid" {
		t.Errorf("nested nets = %v", r1.Nets)
	}
}

func TestParseParams(t *testing.T) {
	src := `.param rload=5k vddval=0.8
V1 vdd 0 vddval
R1 vdd out rload
M1 out g 0 0 nmos nfin=4 nf=2 m=1
Vg g 0 0.4
.op
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Netlist.Device("r1").Value != 5000 {
		t.Error("param in value position not substituted")
	}
	if deck.Netlist.Device("v1").DC != 0.8 {
		t.Error("param as bare DC not substituted")
	}
}

func TestParseICAndTran(t *testing.T) {
	src := `V1 a 0 1
R1 a b 1k
C1 b 0 1p
.ic v(b)=0.5
.tran 10p 1n uic
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	if deck.ICs["b"] != 0.5 {
		t.Errorf("IC = %v", deck.ICs)
	}
	a := deck.Analyses[0]
	if a.Kind != "tran" || a.TStep != 10e-12 || a.TStop != 1e-9 || !a.UIC {
		t.Errorf("tran = %+v", a)
	}
}

func TestParseAC(t *testing.T) {
	src := `V1 a 0 DC 0 AC 1
R1 a b 1k
C1 b 0 1p
.ac dec 20 1meg 10g
`
	deck, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	a := deck.Analyses[0]
	if a.Kind != "ac" || a.Points != 20 || a.FStart != 1e6 || a.FStop != 1e10 || a.Lin {
		t.Errorf("ac = %+v", a)
	}

	deck, err = ParseDeck("V1 a 0 DC 0 AC 1\nR1 a 0 1k\n.ac LIN 1 1meg 1meg\n")
	if err != nil {
		t.Fatal(err)
	}
	if a := deck.Analyses[0]; a.Kind != "ac" || a.Points != 1 || a.FStart != 1e6 || a.FStop != 1e6 || !a.Lin {
		t.Errorf("ac lin = %+v", a)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown element":   "Q1 a b c 1k\nR1 a 0 1\n.op\n",
		"unknown directive": "R1 a 0 1k\n.foo\n",
		"bad MOS model":     "M1 d g s b bjt\nR1 d 0 1\n.op\n",
		"short MOS":         "M1 d g s\nR1 d 0 1\n.op\n",
		"unknown subckt":    "X1 a b nothere\nR1 a 0 1\n.op\n",
		"port mismatch":     "X1 a sub1\n.subckt sub1 p q\nR1 p q 1k\n.ends\n.op\n",
		"unterminated sub":  ".subckt s p\nR1 p 0 1k\n.op\n",
		"ends without sub":  ".ends\n.op\n",
		"bad ac":            "R1 a 0 1\n.ac oct 10 1 100\n",
		"ac dec no points":  "R1 a 0 1\n.ac dec 0 1 100\n",
		"ac dec -3 points":  "R1 a 0 1\n.ac dec -3 1 100\n",
		"ac lin no points":  "R1 a 0 1\n.ac lin 0 1 100\n",
		"ac lin -3 points":  "R1 a 0 1\n.ac lin -3 1 100\n",
		"bad tran":          "R1 a 0 1\n.tran 1n\n",
		"bad param":         ".param foo\nR1 a 0 1\n",
		"bad ic":            "R1 a 0 1\n.ic b=0.5\n",
		"directive in sub":  "X1 a s\n.subckt s p\nR1 p 0 1\n.op\n.ends\n.op\n",
		"bad value":         "R1 a 0 abc\n.op\n",
		"recursive subckt":  ".subckt loop a b\nR1 a b 1k\nX1 a b loop\n.ends\nV1 in 0 1\nX0 in 0 loop\n.op\n",
		"mutual subckts":    ".subckt a p q\nXb p q b\n.ends\n.subckt b p q\nR1 p q 1k\nXa p q a\n.ends\nV1 in 0 1\nX0 in 0 a\n.op\n",
	}
	for name, src := range cases {
		if _, err := ParseDeck("title\n" + src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// These errors name the element and what is wrong with it.
	for src, want := range map[string]string{
		// "nfn" for "nfin": the model would read a 1-fin device.
		"Mn out in 0 0 nmos nfn=8 nf=1 m=1\n": `MOS "Mn" has unknown parameter "nfn"`,
		"M1 d g 0 0 nmos nfin=8 dvth=0.01\n":  `MOS "M1" has extraction values but no dmu`,
		"V1 a 0 1e308meg\n":                   `source "V1": unexpected token "1e308meg": units: "1e308meg" is out of range`,
		"V1 a 0 DC 1e308meg\n":                `source "V1": DC "1e308meg": units: "1e308meg" is out of range`,
		"V1 a 0 AC 1e308meg\n":                `source "V1": AC "1e308meg": units: "1e308meg" is out of range`,
	} {
		if _, err := ParseDeck("title\n" + src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want it to say %s", src, err, want)
		}
	}
}

func TestParseRecursiveSubcktNamesCycle(t *testing.T) {
	for src, cycle := range map[string]string{
		".subckt loop a b\nR1 a b 1k\nX1 a b loop\n.ends\nV1 in 0 1\nX0 in 0 loop\n.op\n":  "loop -> loop",
		".subckt a p q\nXb p q b\n.ends\n.subckt b p q\nXa p q a\n.ends\nX0 in 0 a\n.op\n": "a -> b -> a",
	} {
		_, err := ParseDeck(src)
		if err == nil || !strings.Contains(err.Error(), "recursive .subckt "+cycle) {
			t.Errorf("error %v, want the cycle %s named", err, cycle)
		}
	}
}

func TestTitleOnlyWhenNotElement(t *testing.T) {
	// First line is an element: no title consumed.
	deck, err := ParseDeck("R1 a 0 1k\nV1 a 0 1\n.op\n")
	if err != nil {
		t.Fatal(err)
	}
	if deck.Title != "" || deck.Netlist.Device("r1") == nil {
		t.Errorf("element-first deck mishandled: title=%q", deck.Title)
	}
}

func TestRunSourceEndToEnd(t *testing.T) {
	src := `divider with measures
V1 in 0 DC 1 AC 1
R1 in out 1k
C1 out 0 1p
.op
.ac dec 20 1meg 100g
.measure ac lowgain find vdb(out) at=1meg
.measure ac ugf when vdb(out)=-3.0103
`
	res, deck, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Title == "" {
		t.Error("title lost")
	}
	if res.OP == nil || res.AC == nil {
		t.Fatal("missing analyses")
	}
	if g := res.Measures["lowgain"]; math.Abs(g) > 0.05 {
		t.Errorf("low-f gain = %g dB, want ~0", g)
	}
	fc := 1 / (2 * math.Pi * 1e3 * 1e-12)
	if f := res.Measures["ugf"]; math.Abs(f-fc)/fc > 0.03 {
		t.Errorf("-3dB crossing = %g, want %g", f, fc)
	}
}

func TestRunSourceTranMeasures(t *testing.T) {
	src := `pulse delay
V1 a 0 PULSE(0 1 100p 10p 10p 2n 4n)
R1 a b 1k
C1 b 0 100f
.tran 5p 1n
.measure tran tdel trig v(a) val=0.5 rise=1 targ v(b) val=0.5 rise=1
.measure tran vmax max v(b)
.measure tran vavg avg v(b) from=0 to=100p
`
	res, _, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	// RC delay to 50%: ~0.69*RC = 69ps.
	tdel := res.Measures["tdel"]
	if tdel < 40e-12 || tdel > 100e-12 {
		t.Errorf("tdel = %g, want ~69ps", tdel)
	}
	if vmax := res.Measures["vmax"]; vmax < 0.95 {
		t.Errorf("vmax = %g", vmax)
	}
	if vavg := res.Measures["vavg"]; vavg > 0.05 {
		t.Errorf("pre-pulse avg = %g, want ~0", vavg)
	}
}

func TestMeasureParseErrors(t *testing.T) {
	bad := []string{
		".measure dc x max v(a)",
		".measure tran x bogus v(a)",
		".measure tran x trig v(a) val=1 rise=1",
		".measure tran x when v(a)",
		".measure ac x find vdb(a)",
		".measure tran x max v(a) frm=0",
		".measure tran",
	}
	for _, ln := range bad {
		src := "t\nR1 a 0 1k\nV1 a 0 1\n" + ln + "\n.op\n"
		if _, err := ParseDeck(src); err == nil {
			t.Errorf("accepted: %s", ln)
		}
	}
}

func TestMeasureRequiresAnalysis(t *testing.T) {
	src := `t
V1 a 0 1
R1 a 0 1k
.op
.measure tran x max v(a)
`
	if _, _, err := RunSourceCtx(context.Background(), tech, src); err == nil ||
		!strings.Contains(err.Error(), "needs a .tran") {
		t.Errorf("missing-analysis err = %v", err)
	}
}
