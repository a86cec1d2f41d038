package spice

import (
	"context"
	"math"
	"testing"
)

// End-to-end deck tests: full circuits written as SPICE text, run
// through the parser, all three analyses, and .measure — the way the
// primitive testbenches use the engine.

func TestE2ETwoStageAmpDeck(t *testing.T) {
	src := `two-stage amplifier via subckts
.param vddv=0.8 vb=0.37
.subckt csstage in out vdd
M1 out in 0 0 nmos nfin=4 nf=2 m=1 l=14n
Rload vdd out 4k
.ends
Vdd vdd 0 vddv
Vin in 0 DC vb AC 1
X1 in mid vdd csstage
Cc mid g2 10p
Rb g2 mid 10meg
X2 g2 out vdd csstage
Cl out 0 5f
.op
.ac dec 10 1e5 1e12
.measure ac gdc find vdb(out) at=1e6
.measure ac g1 find vdb(mid) at=1e6
.end
`
	res, deck, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Title != "two-stage amplifier via subckts" {
		t.Errorf("title = %q", deck.Title)
	}
	// Two instantiations of the subckt: x1.m1 and x2.m1.
	if deck.Netlist.Device("x1.m1") == nil || deck.Netlist.Device("x2.m1") == nil {
		t.Fatal("subckt flattening incomplete")
	}
	// Each stage inverts and amplifies; two stages give more dB than
	// one.
	g1 := res.Measures["g1"]
	gdc := res.Measures["gdc"]
	if g1 < 3 {
		t.Errorf("first stage gain = %g dB, want amplifying", g1)
	}
	if gdc < g1+1 {
		t.Errorf("two-stage gain %g dB not above one-stage %g dB", gdc, g1)
	}
}

func TestE2EComparatorLatchDeck(t *testing.T) {
	// A clocked latch written as a deck: when clk rises the
	// cross-coupled pair resolves the small input difference.
	src := `* latch deck
Vdd vdd 0 0.8
Vclk clk 0 PULSE(0 0.8 0.5n 20p 20p 2n 4n)
Vip ip 0 0.43
Vin in 0 0.40
M7 tail clk 0 0 nmos nfin=8 nf=2 m=1
M1 a ip tail 0 nmos nfin=8 nf=2 m=1
M2 b in tail 0 nmos nfin=8 nf=2 m=1
M5 a b vdd vdd pmos nfin=8 nf=2 m=1
M6 b a vdd vdd pmos nfin=8 nf=2 m=1
M8 a clk vdd vdd pmos nfin=4 nf=2 m=1
M9 b clk vdd vdd pmos nfin=4 nf=2 m=1
Ca a 0 2f
Cb b 0 2f
.tran 5p 2n
.measure tran vafin find0 max v(a) from=1.9n to=2n
.measure tran alow max v(a) from=1.9n to=2n
.measure tran bhigh min v(b) from=1.9n to=2n
`
	// "find0" is junk in the middle measure: it must be rejected.
	if _, _, err := RunSourceCtx(context.Background(), tech, src); err == nil {
		t.Fatal("malformed measure accepted")
	}
	// Remove the bad line and run for real.
	good := ""
	for _, ln := range splitLines(src) {
		if !contains(ln, "vafin") {
			good += ln + "\n"
		}
	}
	res, _, err := RunSourceCtx(context.Background(), tech, good)
	if err != nil {
		t.Fatal(err)
	}
	// With ip > in, node a discharges: a low, b high at the end of
	// the evaluation phase.
	if res.Measures["alow"] > 0.3 {
		t.Errorf("losing node a = %g, want low", res.Measures["alow"])
	}
	if res.Measures["bhigh"] < 0.5 {
		t.Errorf("winning node b = %g, want high", res.Measures["bhigh"])
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestE2ERingOscillatorDeck(t *testing.T) {
	// Three-stage single-ended ring oscillator from a subckt deck with
	// an .ic kick: the parser, transient engine, and measures working
	// together on a self-sustained waveform.
	src := `* ring oscillator
.subckt inv in out vdd
Mp out in vdd vdd pmos nfin=4 nf=1 m=1
Mn out in 0 0 nmos nfin=4 nf=1 m=1
Cload out 0 4f
.ends
Vdd vdd 0 0.8
X1 n1 n2 vdd inv
X2 n2 n3 vdd inv
X3 n3 n1 vdd inv
.ic v(n1)=0.8
.tran 2p 3n uic
.measure tran vpp pp v(n1) from=1n to=3n
`
	res, _, err := RunSourceCtx(context.Background(), tech, src)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy ring swings (nearly) rail to rail.
	if pp := res.Measures["vpp"]; pp < 0.4 {
		t.Errorf("ring swing = %g V, not oscillating", pp)
	}
	// Count rising crossings of mid-rail in the tail: at least 2
	// periods within the window.
	v := res.Tran.Volt("n1")
	crossings := 0
	for i := 1; i < len(v); i++ {
		if res.Tran.Times[i] < 1e-9 {
			continue
		}
		if v[i-1] < 0.4 && v[i] >= 0.4 {
			crossings++
		}
	}
	if crossings < 2 {
		t.Errorf("only %d rising crossings; not oscillating", crossings)
	}
	_ = math.Pi
}
