package circuits

import (
	"context"
	"math"
	"testing"
)

func TestTelescopicSchematic(t *testing.T) {
	bm, err := Telescopic(tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := bm.SchematicOPCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("out=%.3f o1=%.3f x1=%.3f y1=%.3f tail=%.3f",
		op.Volt("out"), op.Volt("o1"), op.Volt("x1"), op.Volt("y1"), op.Volt("tail"))
	vals, err := bm.Eval(context.Background(), tech, bm.Schematic)
	if err != nil {
		t.Fatal(err)
	}
	// The telescopic's whole point: much higher gain than the 5T OTA.
	ota, err := OTA5T(tech)
	if err != nil {
		t.Fatal(err)
	}
	otaVals, err := ota.Eval(context.Background(), tech, ota.Schematic)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("telescopic gain %.1f dB vs 5T OTA %.1f dB", vals["gain_db"], otaVals["gain_db"])
	if vals["gain_db"] < otaVals["gain_db"]+10 {
		t.Errorf("telescopic gain %.1f dB not well above 5T OTA %.1f dB",
			vals["gain_db"], otaVals["gain_db"])
	}
	if vals["ugf"] <= 0 || math.IsNaN(vals["pm"]) {
		t.Errorf("metrics: %v", vals)
	}
}
