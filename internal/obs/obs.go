// Package obs is the flow-wide observability layer: hierarchical
// wall-time spans, named counters/gauges/histograms, JSONL export,
// and a human-readable tree renderer — stdlib only.
//
// One trace belongs to one run and travels on the run's context:
// With attaches it, From reads it back, and every layer reports to
// the trace From returns. A context that carries no trace falls back
// to the process-wide default installed with SetDefault (cmd/primopt
// installs one when any observability flag is given); From is the
// only reader of that default.
//
// The whole API is nil-safe by design: a nil *Trace — and the nil
// *Span / *Counter / *Gauge / *Histogram values it hands out — turns
// every call into a branch-on-nil no-op costing ~1 ns with zero
// allocations, so instrumentation stays in place on hot paths
// (Newton inner loops, annealer moves) without a disabled-mode tax.
// Tracing is strictly passive: enabling it never touches RNG streams
// or iteration order, so traced and untraced runs produce identical
// layouts (guarded by a flow test).
//
// Naming convention: metrics are "pkg.subsystem.name"
// (e.g. spice.dc.newton_iters, place.anneal.acceptance_rate); stage
// spans are "flow.<stage>"; package-level sub-spans are
// "pkg.<phase>" (optimize.select, portopt.reconcile, route.net).
package obs

import (
	"context"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one observability sink: a forest of spans plus a metric
// registry. Safe for concurrent use by multiple goroutines.
type Trace struct {
	start time.Time

	mu      sync.Mutex
	seq     int64
	roots   []*Span
	meta    Meta
	hasMeta bool

	reg registry

	memAttr   atomic.Bool
	onSpanEnd atomic.Value // func(*Span)

	seenMu sync.Mutex
	seen   map[string]map[uint64]struct{} // Seen's key sets, by name
}

// New returns an empty enabled trace.
func New() *Trace { return &Trace{start: time.Now()} }

// Enabled reports whether the trace records anything. It is the
// guard to use before doing work that only feeds the trace (building
// attribute slices, reading clocks).
func (t *Trace) Enabled() bool { return t != nil }

// OnSpanEnd registers fn to be called after every span End — the
// hook behind live stage reporting (-v). fn runs on the goroutine
// that ended the span, outside the trace lock.
func (t *Trace) OnSpanEnd(fn func(*Span)) {
	if t == nil || fn == nil {
		return
	}
	t.onSpanEnd.Store(fn)
}

// SetMeta attaches run metadata to the trace; WriteJSONL emits it as
// the first record so consumers (checktrace, tracecmp, benchdiff)
// can attribute measurements to a build and host.
func (t *Trace) SetMeta(m Meta) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta = m
	t.hasMeta = true
	t.mu.Unlock()
}

// Meta returns the attached run metadata and whether any was set.
func (t *Trace) Meta() (Meta, bool) {
	if t == nil {
		return Meta{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meta, t.hasMeta
}

// SetMemAttribution toggles per-span heap-allocation attribution:
// every span started while enabled records the delta of the
// process-wide cumulative allocation counter (runtime/metrics
// /gc/heap/allocs:bytes) between its Start and End as an
// "alloc_bytes" attribute. The counter is process-wide, so spans
// running concurrently each absorb the whole interval's allocations —
// treat the attribute as an upper bound, exact for serial stages.
// Reading the counter never perturbs program behavior, so the
// traced-equals-untraced determinism contract holds.
func (t *Trace) SetMemAttribution(on bool) {
	if t == nil {
		return
	}
	t.memAttr.Store(on)
}

// allocSample is the runtime/metrics key for cumulative heap
// allocation since process start (monotonic, includes freed memory).
const allocSample = "/gc/heap/allocs:bytes"

// heapAllocBytes reads the cumulative allocation counter (0 when the
// runtime does not expose it).
func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: allocSample}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// Seen records key in the trace's key set named set and reports
// whether the trace had recorded it there before. The sets live and
// die with the trace, so a repeat is always a repeat within the
// trace's own run. A nil trace records nothing and reports false.
func (t *Trace) Seen(set string, key uint64) bool {
	if t == nil {
		return false
	}
	t.seenMu.Lock()
	defer t.seenMu.Unlock()
	keys := t.seen[set]
	if keys == nil {
		if t.seen == nil {
			t.seen = map[string]map[uint64]struct{}{}
		}
		keys = map[uint64]struct{}{}
		t.seen[set] = keys
	}
	_, dup := keys[key]
	keys[key] = struct{}{}
	return dup
}

// defaultTrace is the process-wide sink; nil means disabled.
var defaultTrace atomic.Pointer[Trace]

// Default returns the process-wide trace, or nil when observability
// is off. The nil result is safe to use directly. Library code reads
// it only through From.
func Default() *Trace { return defaultTrace.Load() }

// SetDefault installs (or, with nil, removes) the process-wide trace.
func SetDefault(t *Trace) { defaultTrace.Store(t) }

type ctxKey struct{}

// With returns a context carrying tr. A nil tr returns ctx unchanged.
func With(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// From returns the trace ctx carries, or the process-wide Default
// when it carries none. The result may be nil (disabled); every
// method is nil-safe, so callers use it without checking.
func From(ctx context.Context) *Trace {
	if ctx != nil {
		if tr, ok := ctx.Value(ctxKey{}).(*Trace); ok {
			return tr
		}
	}
	return Default()
}

// Span is one timed region of the trace tree.
type Span struct {
	tr     *Trace
	parent *Span
	id     int64
	name   string
	start  time.Time
	alloc0 uint64 // cumulative heap-alloc bytes at Start (0 = not sampled)

	// Guarded by tr.mu.
	dur      time.Duration
	ended    bool
	attrs    map[string]any
	children []*Span
}

// Start opens a root-level span.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: time.Now()}
	if t.memAttr.Load() {
		s.alloc0 = heapAllocBytes()
	}
	t.mu.Lock()
	t.seq++
	s.id = t.seq
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Start opens a child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, parent: s, name: name, start: time.Now()}
	if s.tr.memAttr.Load() {
		c.alloc0 = heapAllocBytes()
	}
	s.tr.mu.Lock()
	s.tr.seq++
	c.id = s.tr.seq
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// SetAttr attaches a key/value attribute. Values must be
// JSON-encodable (strings, numbers, bools, and slices thereof).
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.tr.mu.Unlock()
}

// End closes the span, fixing its duration. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	allocDelta := int64(-1)
	if s.alloc0 != 0 {
		allocDelta = int64(heapAllocBytes() - s.alloc0)
	}
	s.tr.mu.Lock()
	if s.ended {
		s.tr.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if allocDelta >= 0 {
		if s.attrs == nil {
			s.attrs = make(map[string]any, 4)
		}
		s.attrs["alloc_bytes"] = allocDelta
	}
	s.tr.mu.Unlock()
	if fn, ok := s.tr.onSpanEnd.Load().(func(*Span)); ok && fn != nil {
		fn(s)
	}
}

// StartSpan opens a child of parent when parent is non-nil, else a
// root span on tr. It is the idiom for stage packages that accept an
// optional parent span in their Params: direct callers get root
// spans, the flow gets a properly nested tree.
func StartSpan(tr *Trace, parent *Span, name string) *Span {
	if parent != nil {
		return parent.Start(name)
	}
	return tr.Start(name)
}

// Trace returns the owning trace (nil for a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Dur returns the recorded duration (0 before End or for nil).
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.dur
}

// Attr returns one attribute value (nil when absent or for nil spans).
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.attrs[key]
}
