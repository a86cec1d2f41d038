package flow

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"primopt/internal/circuits"
	"primopt/internal/place"
)

// Request is one flow run as every entry point receives it: the body
// of the daemon's POST /v1/generate, and what primopt run, verify and
// cache warm build from their flags. Check validates it and parses its
// mode; Params turns its knobs into flow parameters. Zero-valued knobs
// take the documented defaults.
type Request struct {
	// Circuit names the benchmark (circuits.Names). Required.
	Circuit string `json:"circuit"`
	// Mode is the methodology: schematic, conventional, optimized
	// (default), or manual.
	Mode string `json:"mode,omitempty"`
	// Stages is the RO-VCO stage count (default 8; even, at most
	// circuits.MaxStages; ignored elsewhere).
	Stages int `json:"stages,omitempty"`
	// Seed seeds placement and every derived stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMs bounds the daemon's run of this request; 0 takes the
	// daemon default, larger values clamp to the daemon maximum.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Verify runs the in-flow DRC/LVS pass and attaches its report.
	Verify bool `json:"verify,omitempty"`
	// RetryAttempts widens the optimize retry ladder (0 = flow
	// default of 2 total attempts).
	RetryAttempts int `json:"retry_attempts,omitempty"`
	// PlaceReplicas runs N independently seeded annealing replicas
	// (at most place.MaxReplicas).
	PlaceReplicas int `json:"place_replicas,omitempty"`
	// SpiceWorkers bounds concurrent SPICE evaluations per primitive.
	SpiceWorkers int `json:"spice_workers,omitempty"`
	// Trace attaches the per-request span forest and metrics to the
	// daemon's response. Traced bodies are timing-dependent by nature
	// and therefore exempt from the byte-identical guarantee.
	Trace bool `json:"trace,omitempty"`
}

// ModeNames lists every mode's name, indexed by Mode: the vocabulary
// Request.Mode accepts.
func ModeNames() []string { return slices.Clone(modeNames[:]) }

// Check validates the request and returns its mode: a known circuit,
// a known mode name in any case ("" is Optimized), no negative knob,
// an RO-VCO stage count that circuits.CheckStages accepts, and a
// replica count that place.CheckReplicas accepts. It resolves the seed
// default in place (0 becomes 1). Errors are fit to show to whoever
// wrote the request.
func (r *Request) Check() (Mode, error) {
	names := circuits.Names()
	if r.Circuit == "" {
		return 0, fmt.Errorf("missing circuit (want %s)", strings.Join(names, ", "))
	}
	if !slices.Contains(names, r.Circuit) {
		return 0, fmt.Errorf("unknown circuit %q (want %s)", r.Circuit, strings.Join(names, ", "))
	}
	mode := Optimized
	if r.Mode != "" {
		i := slices.Index(modeNames[:], strings.ToLower(r.Mode))
		if i < 0 {
			return 0, fmt.Errorf("unknown mode %q (want %s)", r.Mode, strings.Join(modeNames[:], ", "))
		}
		mode = Mode(i)
	}
	if r.TimeoutMs < 0 || r.Stages < 0 || r.Seed < 0 || r.RetryAttempts < 0 || r.PlaceReplicas < 0 || r.SpiceWorkers < 0 {
		return 0, errors.New("negative knob values are invalid")
	}
	if r.Circuit == "rovco" && r.Stages != 0 {
		if err := circuits.CheckStages(r.Stages); err != nil {
			return 0, err
		}
	}
	if err := place.CheckReplicas(r.PlaceReplicas); err != nil {
		return 0, err
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return mode, nil
}

// Params returns the flow parameters of the request's knobs: seed,
// SPICE workers, placement replicas, retry attempts and verification.
// The caller adds what the request does not carry: the cache, the
// trace, the fault injector and any stage deadline.
func (r Request) Params() Params {
	p := Params{Seed: r.Seed, PlaceReplicas: r.PlaceReplicas, RetryAttempts: r.RetryAttempts}
	p.Optimize.Workers = r.SpiceWorkers
	if r.Verify {
		p.Verify.Mode = VerifyWarn
	}
	return p
}
