package flow

import (
	"reflect"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/place"
)

// TestRequestCheck is the validation every entry point shares: the
// daemon answers 400 with these errors, and primopt run, verify and
// cache warm exit on them before any flow runs.
func TestRequestCheck(t *testing.T) {
	bad := []struct {
		name string
		req  Request
	}{
		{"unknown circuit", Request{Circuit: "nand2"}},
		{"missing circuit", Request{}},
		{"unknown mode", Request{Circuit: "csamp", Mode: "quantum"}},
		{"all is not one run's mode", Request{Circuit: "csamp", Mode: "all"}},
		{"negative seed", Request{Circuit: "csamp", Seed: -4}},
		{"negative stages", Request{Circuit: "rovco", Stages: -2}},
		{"negative timeout", Request{Circuit: "csamp", TimeoutMs: -1}},
		{"negative retry attempts", Request{Circuit: "csamp", RetryAttempts: -1}},
		{"negative replicas", Request{Circuit: "csamp", PlaceReplicas: -1}},
		{"negative workers", Request{Circuit: "csamp", SpiceWorkers: -1}},
		{"odd stages", Request{Circuit: "rovco", Stages: 3}},
		{"oversized stages", Request{Circuit: "rovco", Stages: circuits.MaxStages + 2}},
		{"replicas above the bound", Request{Circuit: "csamp", PlaceReplicas: place.MaxReplicas + 1}},
	}
	for _, tc := range bad {
		r := tc.req
		if m, err := r.Check(); err == nil {
			t.Errorf("%s: %+v accepted as mode %v", tc.name, tc.req, m)
		}
	}

	good := []struct {
		req  Request
		mode Mode
	}{
		{Request{Circuit: "csamp"}, Optimized},
		{Request{Circuit: "csamp", Mode: "schematic"}, Schematic},
		{Request{Circuit: "ota5t", Mode: "Conventional"}, Conventional},
		{Request{Circuit: "strongarm", Mode: "MANUAL"}, Manual},
		{Request{Circuit: "rovco", Stages: circuits.MaxStages}, Optimized},
		{Request{Circuit: "telescopic", Stages: 3}, Optimized}, // stages apply to the ring only
		{Request{Circuit: "csamp", PlaceReplicas: place.MaxReplicas}, Optimized},
	}
	for _, tc := range good {
		r := tc.req
		m, err := r.Check()
		if err != nil || m != tc.mode {
			t.Errorf("%+v: got %v, %v; want %v", tc.req, m, err, tc.mode)
		}
	}

	for i, name := range ModeNames() {
		r := Request{Circuit: "csamp", Mode: name}
		if m, err := r.Check(); err != nil || m != Mode(i) || m.String() != name {
			t.Errorf("mode %q checks as %v (err %v), want %v", name, m, err, Mode(i))
		}
	}

	r := Request{Circuit: "csamp"}
	if _, err := r.Check(); err != nil || r.Seed != 1 {
		t.Errorf("seed 0 checks as %d (err %v), want 1", r.Seed, err)
	}
	r = Request{Circuit: "csamp", Seed: 7}
	if _, err := r.Check(); err != nil || r.Seed != 7 {
		t.Errorf("seed 7 checks as %d (err %v)", r.Seed, err)
	}
}

// TestRequestParams: the request's knobs, and only they, land on the
// flow params.
func TestRequestParams(t *testing.T) {
	r := Request{Circuit: "rovco", Mode: "conventional", Stages: 4, Seed: 9, TimeoutMs: 50,
		RetryAttempts: 5, PlaceReplicas: 3, SpiceWorkers: 2, Verify: true, Trace: true}
	var want Params
	want.Seed = 9
	want.RetryAttempts = 5
	want.PlaceReplicas = 3
	want.Optimize.Workers = 2
	want.Verify.Mode = VerifyWarn
	if got := r.Params(); !reflect.DeepEqual(got, want) {
		t.Errorf("Params() = %+v, want %+v", got, want)
	}
	if got := (Request{Circuit: "csamp", Seed: 1}).Params(); !reflect.DeepEqual(got, Params{Seed: 1}) {
		t.Errorf("knob-free request: Params() = %+v, want only the seed", got)
	}
}
