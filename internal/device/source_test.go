package device

import (
	"math"
	"testing"

	"primopt/internal/circuit"
)

func vsrc(wave *circuit.SourceWave, dc float64) *circuit.Device {
	return &circuit.Device{Name: "v1", Type: circuit.VSource, Nets: []string{"p", "0"}, DC: dc, Wave: wave}
}

func TestSourceDCOnly(t *testing.T) {
	d := vsrc(nil, 0.8)
	if SourceValueAt(d, 0) != 0.8 || SourceValueAt(d, 1) != 0.8 {
		t.Error("DC source not constant")
	}
	// Unknown wave kind falls back to DC.
	d2 := vsrc(&circuit.SourceWave{Kind: "mystery"}, 0.5)
	if SourceValueAt(d2, 1e-9) != 0.5 {
		t.Error("unknown wave should fall back to DC")
	}
}

func TestPulseWaveform(t *testing.T) {
	// v1=0 v2=1 td=1n tr=1n tf=1n pw=2n per=10n
	w := &circuit.SourceWave{Kind: "pulse", Args: []float64{0, 1, 1e-9, 1e-9, 1e-9, 2e-9, 10e-9}}
	d := vsrc(w, 0)
	cases := []struct{ tm, want float64 }{
		{0, 0},         // before delay
		{1e-9, 0},      // start of rise
		{1.5e-9, 0.5},  // mid rise
		{2e-9, 1},      // top
		{3.9e-9, 1},    // still high
		{4.5e-9, 0.5},  // mid fall
		{6e-9, 0},      // low
		{11.5e-9, 0.5}, // periodic repeat: mid rise of cycle 2
		{13e-9, 1},     // cycle 2 high
	}
	for _, c := range cases {
		if got := SourceValueAt(d, c.tm); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("pulse(%g) = %g, want %g", c.tm, got, c.want)
		}
	}
}

func TestPulseDegenerateEdges(t *testing.T) {
	// Zero rise/fall must not divide by zero.
	w := &circuit.SourceWave{Kind: "pulse", Args: []float64{0, 1, 0, 0, 0, 1e-9, 0}}
	d := vsrc(w, 0)
	if v := SourceValueAt(d, 0.5e-9); v != 1 {
		t.Errorf("flat-top value = %g", v)
	}
	if v := SourceValueAt(d, 5e-9); v != 0 {
		t.Errorf("after pulse = %g", v)
	}
	// Short args list uses defaults without panicking.
	w2 := &circuit.SourceWave{Kind: "pulse", Args: []float64{0, 1}}
	_ = SourceValueAt(vsrc(w2, 0), 1e-9)
}

func TestSinWaveform(t *testing.T) {
	w := &circuit.SourceWave{Kind: "sin", Args: []float64{0.4, 0.1, 1e9}}
	d := vsrc(w, 0.4)
	if got := SourceValueAt(d, 0); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("sin(0) = %g", got)
	}
	quarter := 0.25e-9
	if got := SourceValueAt(d, quarter); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("sin(T/4) = %g, want 0.5", got)
	}
	// Delay holds the offset.
	wd := &circuit.SourceWave{Kind: "sin", Args: []float64{0.4, 0.1, 1e9, 1e-9}}
	if got := SourceValueAt(vsrc(wd, 0.4), 0.5e-9); got != 0.4 {
		t.Errorf("delayed sin = %g", got)
	}
	// Damping shrinks amplitude.
	wt := &circuit.SourceWave{Kind: "sin", Args: []float64{0, 1, 1e9, 0, 1e9}}
	v1 := SourceValueAt(vsrc(wt, 0), 0.25e-9)
	if v1 >= 1 || v1 <= 0 {
		t.Errorf("damped sin = %g", v1)
	}
}

func TestPWLWaveform(t *testing.T) {
	w := &circuit.SourceWave{Kind: "pwl",
		Times: []float64{0, 1e-9, 2e-9},
		Vals:  []float64{0, 1, 0.5}}
	d := vsrc(w, 0)
	cases := []struct{ tm, want float64 }{
		{-1, 0}, {0, 0}, {0.5e-9, 0.5}, {1e-9, 1}, {1.5e-9, 0.75}, {2e-9, 0.5}, {9, 0.5},
	}
	for _, c := range cases {
		if got := SourceValueAt(d, c.tm); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pwl(%g) = %g, want %g", c.tm, got, c.want)
		}
	}
	// Duplicate time points (step) pick the later value.
	ws := &circuit.SourceWave{Kind: "pwl",
		Times: []float64{0, 1e-9, 1e-9}, Vals: []float64{0, 0, 1}}
	if got := SourceValueAt(vsrc(ws, 0), 1e-9); got != 0 {
		// At exactly the first matching point the earlier segment wins;
		// just ensure no NaN/panic and a value from {0,1}.
		if got != 1 {
			t.Errorf("step pwl = %g", got)
		}
	}
	// Empty PWL.
	we := &circuit.SourceWave{Kind: "pwl"}
	if got := SourceValueAt(vsrc(we, 0), 1); got != 0 {
		t.Errorf("empty pwl = %g", got)
	}
}
