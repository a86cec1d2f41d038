// Package fault is a deterministic, seedable fault-injection harness
// for the layout flow. Production code declares named sites — points
// where an external failure (a non-converged solve, a crashed worker,
// a stalled simulator) could occur — and tests or the -fault-spec CLI
// flag arm those sites to force an error, a panic, or a delay at a
// chosen hit. An armed run is reproducible from (seed, spec) alone:
// the same arming fires at the same hits in the same order.
//
// The package follows internal/obs's nil-safety contract: every
// method works on a nil *Injector and does nothing, so the disabled
// path costs a single nil check and no allocation. Sites resolve
// their injector once from the run's context and then call Hit in
// hot loops without further lookups.
package fault

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"primopt/internal/obs"
)

// Site names armable by spec. Each constant is the string a spec term
// uses and the suffix of the fault.injected.<site> counter emitted
// when the site fires.
const (
	SiteSpiceOP        = "spice.op"        // operating-point solve entry
	SiteSpiceDC        = "spice.dc"        // one damped-Newton DC solve
	SiteSpiceTran      = "spice.tran"      // transient analysis entry
	SiteSpiceTranStep  = "spice.tran.step" // one transient timestep
	SiteRouteNet       = "route.net"       // one net's A* search
	SiteEvcacheCompute = "evcache.compute" // one cache-miss computation
	SiteEvcacheDisk    = "evcache.disk"    // one disk-tier record read
	SitePlaceReplica   = "place.replica"   // one annealing replica
	SiteExtract        = "extract"         // one primitive extraction
)

// Sites lists every armable site, for CLI help and spec validation.
func Sites() []string {
	return []string{
		SiteSpiceOP, SiteSpiceDC, SiteSpiceTran, SiteSpiceTranStep,
		SiteRouteNet, SiteEvcacheCompute, SiteEvcacheDisk, SitePlaceReplica, SiteExtract,
	}
}

// Mode is what an armed site does when it fires.
type Mode int

// Fire behaviors.
const (
	ModeError Mode = iota // Hit returns an *Error
	ModePanic             // Hit panics with an *Error value
	ModeDelay             // Hit sleeps for the armed duration, then returns nil
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Error is the injected failure. Sites return it from Hit (mode
// error) or panic with it (mode panic), so recovery paths can tell an
// injected fault from an organic one with errors.As / IsInjected.
type Error struct {
	Site string
	Hit  int // 1-based hit index at which the site fired
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (hit %d)", e.Site, e.Hit)
}

// IsInjected reports whether err (anywhere in its chain) is an
// injected fault.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*Error); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// arm is one parsed spec term.
type arm struct {
	site string
	mode Mode
	n    int           // fire at the n-th hit (1-based); 0 with prob>0
	from bool          // @N+ — fire at every hit from the n-th on
	prob float64       // ~P — fire each hit with probability P (seeded)
	dur  time.Duration // delay mode only
}

// armState is an arm plus its runtime hit counter and PRNG stream.
type armState struct {
	arm
	hits int
	rng  uint64 // splitmix64 state, seeded per (Injector.seed, site)
}

// Injector holds the armed sites of one run. The zero value and nil
// are both valid, disabled injectors. Concurrency-safe: worker pools
// hit sites from many goroutines.
type Injector struct {
	seed int64
	spec string

	mu   sync.Mutex
	arms map[string]*armState
}

// New parses a spec and returns an armed injector. The spec is a
// comma-separated list of terms:
//
//	site:mode[@N[+]][~P]
//
// where mode is error, panic, or delay=DURATION (Go duration syntax),
// @N fires at exactly the N-th hit of the site (default @1), @N+
// fires at every hit from the N-th on, and ~P instead fires each hit
// independently with probability P drawn from a deterministic stream
// seeded by (seed, site). An empty spec returns (nil, nil): no
// injection, zero cost.
func New(seed int64, spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{seed: seed, spec: spec, arms: map[string]*armState{}}
	known := map[string]bool{}
	for _, s := range Sites() {
		known[s] = true
	}
	for _, term := range strings.Split(spec, ",") {
		a, err := parseTerm(strings.TrimSpace(term))
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: %w", term, err)
		}
		if !known[a.site] {
			return nil, fmt.Errorf("fault: spec %q: unknown site %q (want one of %s)",
				term, a.site, strings.Join(Sites(), ", "))
		}
		if _, dup := in.arms[a.site]; dup {
			return nil, fmt.Errorf("fault: spec %q: site %q armed twice", term, a.site)
		}
		in.arms[a.site] = &armState{arm: a, rng: seedFor(seed, a.site)}
	}
	return in, nil
}

// parseTerm parses one site:mode[@N[+]][~P] spec term.
func parseTerm(term string) (arm, error) {
	a := arm{n: 1}
	site, rest, ok := strings.Cut(term, ":")
	if !ok || site == "" || rest == "" {
		return a, fmt.Errorf("want site:mode[@N[+]][~P]")
	}
	a.site = site
	if i := strings.IndexByte(rest, '~'); i >= 0 {
		p, err := strconv.ParseFloat(rest[i+1:], 64)
		if err != nil || p <= 0 || p > 1 {
			return a, fmt.Errorf("bad probability %q (want 0 < P <= 1)", rest[i+1:])
		}
		a.prob, a.n = p, 0
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		at := rest[i+1:]
		if strings.HasSuffix(at, "+") {
			a.from = true
			at = strings.TrimSuffix(at, "+")
		}
		n, err := strconv.Atoi(at)
		if err != nil || n < 1 {
			return a, fmt.Errorf("bad hit index %q (want @N or @N+, N >= 1)", rest[i+1:])
		}
		if a.prob > 0 {
			return a, fmt.Errorf("@N and ~P are mutually exclusive")
		}
		a.n = n
		rest = rest[:i]
	}
	mode, durStr, hasDur := strings.Cut(rest, "=")
	switch mode {
	case "error":
		a.mode = ModeError
	case "panic":
		a.mode = ModePanic
	case "delay":
		a.mode = ModeDelay
		if !hasDur {
			return a, fmt.Errorf("delay needs a duration (delay=50ms)")
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d < 0 {
			return a, fmt.Errorf("bad delay duration %q", durStr)
		}
		a.dur = d
		hasDur = false
	default:
		return a, fmt.Errorf("unknown mode %q (want error, panic, or delay=DURATION)", mode)
	}
	if hasDur {
		return a, fmt.Errorf("mode %q takes no =value", mode)
	}
	return a, nil
}

// seedFor derives the per-site PRNG seed: splitmix64 over the run
// seed xor an FNV-1a hash of the site name, so each site draws an
// independent deterministic stream.
func seedFor(seed int64, site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return uint64(seed) ^ h
}

// splitmix64 advances the stream and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Spec returns the spec string the injector was built from.
func (in *Injector) Spec() string {
	if in == nil {
		return ""
	}
	return in.spec
}

// Enabled reports whether any site is armed.
func (in *Injector) Enabled() bool { return in != nil && len(in.arms) > 0 }

// Hit registers one hit of a site by the run ctx belongs to. If the
// site is armed and this hit fires, Hit counts fault.injected on the
// run's trace (obs.From(ctx)) and returns an *Error (mode error),
// panics with an *Error (mode panic), or sleeps and returns nil (mode
// delay). Unarmed sites and nil injectors return nil immediately.
func (in *Injector) Hit(ctx context.Context, site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	st, ok := in.arms[site]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	st.hits++
	hit := st.hits
	fire := false
	switch {
	case st.prob > 0:
		// Deterministic per-site stream: one draw per hit.
		fire = float64(splitmix64(&st.rng)>>11)/float64(1<<53) < st.prob
	case st.from:
		fire = hit >= st.n
	default:
		fire = hit == st.n
	}
	mode, dur := st.mode, st.dur
	in.mu.Unlock()
	if !fire {
		return nil
	}
	tr := obs.From(ctx)
	tr.Counter("fault.injected").Inc()
	//lint:allow spanhygiene site names come from the finite fault-spec grammar and are stable for a given (seed, spec)
	tr.Counter("fault.injected." + site).Inc()
	fe := &Error{Site: site, Hit: hit}
	switch mode {
	case ModePanic:
		//lint:allow errflow ModePanic is the injector's contract: the armed site must panic so recovery ladders can be exercised
		panic(fe)
	case ModeDelay:
		if dur > 0 {
			time.Sleep(dur)
		}
		return nil
	}
	return fe
}

// Hits returns how many times a site has been hit so far (armed
// sites only; unarmed sites are not counted).
func (in *Injector) Hits(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.arms[site]; ok {
		return st.hits
	}
	return 0
}

// Armed returns the armed site names, sorted.
func (in *Injector) Armed() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.arms))
	for s := range in.arms {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ---- context carriage ----

type ctxKey struct{}

// With returns a context carrying the injector. A nil injector
// returns ctx unchanged.
func With(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// From returns the context's injector, or nil (disabled) when the
// context carries none. All methods are nil-safe, so callers use the
// result without checking.
func From(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Jitter returns a deterministic duration in [0, max) drawn from a
// stream seeded by (seed, tag) — used by tests that need reproducible
// "random" delays without wall-clock dependence.
func Jitter(seed int64, tag string, idx int, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	st := seedFor(seed, tag)
	var v uint64
	for i := 0; i <= idx; i++ {
		v = splitmix64(&st)
	}
	f := float64(v>>11) / float64(1<<53)
	d := time.Duration(math.Floor(f * float64(max)))
	if d >= max {
		d = max - 1
	}
	return d
}
