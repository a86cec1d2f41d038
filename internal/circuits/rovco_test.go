package circuits

import (
	"context"
	"testing"
)

func TestROVCOValidation(t *testing.T) {
	if _, err := ROVCO(tech, 3); err == nil {
		t.Error("odd stage count accepted")
	}
	if _, err := ROVCO(tech, 0); err == nil {
		t.Error("zero stages accepted")
	}
	if _, err := ROVCO(tech, MaxStages+2); err == nil {
		t.Errorf("%d stages accepted, above the bound %d", MaxStages+2, MaxStages)
	}
	for _, n := range []int{2, MaxStages} {
		if err := CheckStages(n); err != nil {
			t.Errorf("%d stages rejected: %v", n, err)
		}
	}
}

func TestROVCOOscillates(t *testing.T) {
	// Four stages keep the unit test quick; the benchmarks use eight.
	bm, err := ROVCO(tech, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, ok, err := EvalVCOAtCtx(context.Background(), tech, bm.Schematic, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("VCO does not oscillate at full control voltage")
	}
	if f < 1e8 || f > 1e11 {
		t.Errorf("fosc = %g, want 0.1..50 GHz", f)
	}
	// Lower control voltage starves the stages: slower.
	f2, ok2, err := EvalVCOAtCtx(context.Background(), tech, bm.Schematic, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 && f2 >= f {
		t.Errorf("starved VCO faster: %g vs %g", f2, f)
	}
}
