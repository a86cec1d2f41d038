package paper

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/flow"
	"primopt/internal/pdk"
)

var tech = pdk.Default()

func TestFig2(t *testing.T) {
	tb, err := Fig2(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"Gain (dB)", "UGF (GHz)", "Power (uW)", "Optimized"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig2 output missing %q:\n%s", want, s)
		}
	}
	t.Log("\n" + s)
}

func TestTable1(t *testing.T) {
	tb, err := Table1(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("Table I rows = %d, want 4", len(tb.Rows))
	}
	t.Log("\n" + tb.String())
}

func TestTable2(t *testing.T) {
	tb, err := Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 15 {
		t.Errorf("Table II rows = %d", len(tb.Rows))
	}
	t.Log("\n" + tb.String())
}

func TestTable3(t *testing.T) {
	tb, err := Table3(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 8 {
		t.Errorf("Table III rows = %d", len(tb.Rows))
	}
	s := tb.String()
	if !strings.Contains(s, "ABBA") || !strings.Contains(s, "AABB") {
		t.Error("patterns missing from Table III")
	}
	if !strings.Contains(s, "bin best") {
		t.Error("no bin winners marked")
	}
	t.Log("\n" + s)
}

func TestTable4(t *testing.T) {
	tb, err := Table4(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Errorf("Table IV rows = %d, want 7", len(tb.Rows))
	}
	t.Log("\n" + tb.String())
}

func TestTable5(t *testing.T) {
	tb, err := Table5(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
}

func TestTable6(t *testing.T) {
	tb, results, err := Table6(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Errorf("Table VI rows = %d, want 7 (5 OTA + 2 StrongARM)", len(tb.Rows))
	}
	t.Log("\n" + tb.String())
	for _, line := range ShapeChecks(results) {
		t.Log(line)
		if strings.HasPrefix(line, "[FAIL]") {
			t.Error(line)
		}
	}
}

func TestTable7(t *testing.T) {
	if testing.Short() {
		t.Skip("VCO flow is slow")
	}
	tb, results, err := Table7(context.Background(), tech, 4) // 4 stages keep the test fast
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	for _, line := range ShapeChecks(results) {
		t.Log(line)
	}
}

func TestAblationBinning(t *testing.T) {
	tb, err := AblationBinning(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 2 {
		t.Error("binning ablation should show several selections")
	}
	t.Log("\n" + tb.String())
}

func TestAblationLDE(t *testing.T) {
	tb, err := AblationLDE(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	// With LDE off, AABB's cost must collapse toward the others.
	var onAABB, offAABB, onABBA float64
	for _, r := range tb.Rows {
		if r[1] == "AABB" {
			fmt.Sscanf(r[2], "%f", &onAABB)
			fmt.Sscanf(r[3], "%f", &offAABB)
		}
		if r[1] == "ABBA" {
			fmt.Sscanf(r[2], "%f", &onABBA)
		}
	}
	if onAABB < 2*onABBA {
		t.Errorf("with LDE on, AABB cost %.1f should far exceed ABBA %.1f", onAABB, onABBA)
	}
	if offAABB > onAABB/2 {
		t.Errorf("with LDE off, AABB cost should collapse: %.1f vs %.1f", offAABB, onAABB)
	}
}

func TestAblationCurvature(t *testing.T) {
	tb, err := AblationCurvature(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
}

func TestAblationReconcile(t *testing.T) {
	tb, err := AblationReconcile(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
}

func TestShapeChecksHandlesPartialResults(t *testing.T) {
	// Empty and partial result sets produce no checks (no panic).
	if lines := ShapeChecks(nil); len(lines) != 0 {
		t.Errorf("empty results produced checks: %v", lines)
	}
	bm, err := circuits.CommonSource(tech)
	if err != nil {
		t.Fatal(err)
	}
	r, err := flow.RunContext(context.Background(), tech, bm, flow.Schematic, flow.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if lines := ShapeChecks([]*flow.Result{r}); len(lines) != 0 {
		t.Errorf("unrelated benchmark produced checks: %v", lines)
	}
}

func TestOffsetSigmaPositive(t *testing.T) {
	s, err := offsetSigma(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Errorf("offset sigma = %g", s)
	}
}
