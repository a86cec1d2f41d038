// Package evcache is the concurrency-safe memoization cache for
// primitive layout evaluations — the result cache that PR 2's
// optimize.repeat_evals counter was measuring the demand for. One
// evaluation (extraction + the primitive's SPICE testbenches) is
// keyed by the exact snapshot that determines its outcome: primitive
// kind, sizing and bias fingerprints, the full layout configuration,
// and the sorted per-terminal wire counts. Because the key carries
// sizing and bias, a single cache is safe to share across Optimize
// calls and across every primitive instance of a circuit flow. The
// bias part is only what the family's testbenches read
// (primlib.Entry.TestbenchBias), and EvaluateCtx evaluates that same
// projection, so equal keys are equal evaluations. The projection is
// what lets instances share: the RO-VCO's current-starved stages get
// schematic-OP gate and drain voltages (VCM, VD) that differ across
// the symmetric ring only in the last bits and that no csinv
// testbench reads, so the stages request one set of keys and single
// flight computes each once — the reuse across the hierarchy that
// ALIGN motivates.
//
// Correctness rests on two properties:
//
//   - Deep isolation: entries are stored as deep copies and handed
//     out as deep copies, so tuning's in-place wire mutations on a
//     returned layout can never corrupt the cache (or vice versa).
//   - Single flight: concurrent requests for the same uncomputed key
//     block on one computation instead of racing duplicate SPICE
//     runs; every waiter counts as a hit, so with a cache installed
//     optimize.repeat_evals == evcache.hits by construction.
//
// Errors are never cached — a failed computation releases the key so
// a later request recomputes (and the whole run aborts anyway).
//
// # Expected hit/miss profiles
//
// A low hit ratio is not a key defect. Misses count *distinct*
// snapshots: the tuner's wire sweep enumerates counts n = 1..maxW per
// terminal and every n is a different key, so the first visit to each
// is necessarily a miss — hits only come from *re*-visits (the
// winner's re-evaluation, correlated-terminal re-sweeps, or another
// instance requesting an identical snapshot). Circuits whose
// primitive instances are all distinct therefore sit near the
// sweep-enumeration floor: csamp's two instances have different kinds
// ("csamp", "csource_p") and sizings, share nothing, and measure ~18
// hits against ~114 misses — exactly the count of distinct
// (config, wires) snapshots its selection + tuning visits. The big
// ratios come from instance symmetry: the RO-VCO's N stages request
// the same keys, so all but the first request of each are hits and
// the miss count does not grow with N.
// TestMissesCountDistinctSnapshots pins this accounting.
package evcache

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"primopt/internal/cellgen"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// SchemaVersion is the cache schema generation, carried by every key
// and stamped into every disk segment header. Bump it whenever the
// key format or the persisted payload encoding changes: version-
// mismatched segments are never served, and old keys become dead
// entries that age out of the disk tier, so a schema change can never
// resurrect stale results. v2 added the PDK fingerprint and the
// external-route section to the key (v1 keys were process-local and
// omitted both — the cross-PDK collision this version fixes).
// Projecting the bias onto the fields the testbenches read did not
// bump it: a projected key equals a full-bias key only when the full
// bias already had zeros in the dropped fields, and then both key the
// same evaluation; full-bias csinv keys are simply never requested
// again and age out of the disk tier.
const SchemaVersion = 2

// Entry is one cached evaluation. Layout evaluations fill every
// field; schematic reference evaluations (no layout) carry only Eval.
type Entry struct {
	Layout *cellgen.Layout
	Ex     *extract.Extracted
	Eval   *primlib.Eval
	Cost   float64 // Eq. (5), percent points
	Values []cost.Value
}

// clone deep-copies an entry. The Layout/Ex aliasing invariant is
// preserved: the cloned Layout is the cloned Ex's layout.
func (e *Entry) clone() *Entry {
	out := &Entry{Cost: e.Cost, Eval: e.Eval.Clone()}
	out.Values = append([]cost.Value(nil), e.Values...)
	if e.Ex != nil {
		out.Ex = e.Ex.Clone()
		out.Layout = out.Ex.Layout
	} else if e.Layout != nil {
		out.Layout = e.Layout.Clone()
	}
	return out
}

// approxBytes estimates the retained size of an entry, for the
// evcache.bytes counter and the in-memory/disk LRU bounds. It is an
// accounting estimate (struct sizes plus per-element costs), not a
// precise heap measurement. Alias-aware: a stored entry's Layout is
// normally the same object as Ex.Layout (the clone invariant), so
// that layout is charged exactly once; an entry whose extraction
// carries a distinct layout is charged for both — the earlier
// version never looked at Ex.Layout at all, undercounting whenever
// the two diverged and leaving the size bounds dishonest.
func (e *Entry) approxBytes() int64 {
	n := int64(128)
	if e.Layout != nil {
		n += layoutBytes(e.Layout)
	}
	if e.Ex != nil {
		n += 64 + int64(len(e.Ex.Dev))*48 + int64(len(e.Ex.Term))*56
		if e.Ex.Layout != nil && e.Ex.Layout != e.Layout {
			n += layoutBytes(e.Ex.Layout)
		}
	}
	if e.Eval != nil {
		n += 32 + int64(len(e.Eval.Values))*40
	}
	n += int64(len(e.Values)) * 72
	return n
}

// layoutBytes is the accounting estimate for one retained layout.
func layoutBytes(l *cellgen.Layout) int64 {
	n := int64(256) + int64(len(l.Units))*32 + int64(len(l.Wires))*96
	for _, ctxs := range l.UnitCtx {
		n += int64(len(ctxs)) * 48
	}
	return n
}

// Key renders the canonical snapshot key for a layout evaluation of
// primitive e. The key is fully content-addressed: it opens with
// the cache schema version and the PDK fingerprint, so entries that
// outlive a process (the disk tier) can never be served across model
// changes or key-format generations — in-process both are constant,
// which is why their omission was latent until entries persisted.
// The bias part is e.TestbenchBias(bias), the fields the entry's
// testbenches read (dropped fields print as 0); EvaluateCtx applies
// the same projection, so equal keys evaluate equal inputs. A nil
// layout keys the schematic reference evaluation of the same (kind,
// sizing, bias). The layout part is the full configuration
// (including dummies, which Config.ID omits) plus the sorted
// per-terminal wire counts; routes, when present, add the sorted
// external global-route geometry per port (the port-optimization
// sweeps evaluate the same layout under different route overrides) —
// exactly the state the testbench decks depend on.
func Key(t *pdk.Tech, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, lay *cellgen.Layout, routes map[string]extract.Route) string {
	bias = e.TestbenchBias(bias)
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|pdk=%s|%s", SchemaVersion, t.Fingerprint(), e.Kind)
	fmt.Fprintf(&b, "|fins=%d;L=%d;rB=%d;I=%g", sz.TotalFins, sz.L, sz.RatioB, sz.NominalI)
	fmt.Fprintf(&b, "|vdd=%g;vcm=%g;vd=%g;it=%g;cl=%g;vctl=%g;vcas=%g",
		bias.Vdd, bias.VCM, bias.VD, bias.ITail, bias.CLoad, bias.VCtrl, bias.VCasc)
	if lay == nil {
		b.WriteString("|schematic")
	} else {
		c := lay.Config
		fmt.Fprintf(&b, "|cfg=%d/%d/%d/%d/%s", c.NFin, c.NF, c.M, c.Dummies, c.Pattern)
		names := make([]string, 0, len(lay.Wires))
		for w := range lay.Wires {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			fmt.Fprintf(&b, "|%s=%d", w, lay.Wires[w].NWires)
		}
	}
	if len(routes) > 0 {
		ports := make([]string, 0, len(routes))
		for w := range routes {
			ports = append(ports, w)
		}
		sort.Strings(ports)
		for _, w := range ports {
			r := routes[w]
			fmt.Fprintf(&b, "|r:%s=%d/%d/%d/%d/%d", w, r.Layer, r.Length, r.NWires, r.PinLayer, r.Vias)
		}
	}
	return b.String()
}

// Cache is a concurrency-safe memoization table of evaluation
// entries with single-flight computation. The zero value is not
// usable; call New. An optional disk tier (AttachDisk) backs the
// memory tier: misses consult the disk before computing, and
// successful computations are written through.
type Cache struct {
	mu        sync.Mutex
	entries   map[string]*Entry
	inflight  map[string]chan struct{}
	requested map[string]bool
	disk      *Disk

	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		entries:   make(map[string]*Entry),
		inflight:  make(map[string]chan struct{}),
		requested: make(map[string]bool),
	}
}

// Stats is a point-in-time snapshot of the cache counters. The Disk*
// fields are meaningful only when DiskTier is true.
type Stats struct {
	Hits, Misses int64
	Entries      int
	Bytes        int64

	DiskTier      bool
	DiskHits      int64
	DiskMisses    int64
	DiskReadErrs  int64
	DiskWriteErrs int64
	DiskEvictions int64
	DiskSegments  int
	DiskEntries   int
	DiskBytes     int64
}

// Stats snapshots the cache (zero value for nil).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	d := c.disk
	c.mu.Unlock()
	st := Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: n,
		Bytes:   c.bytes.Load(),
	}
	if d != nil {
		ds := d.Stats()
		st.DiskTier = true
		st.DiskHits = ds.Hits
		st.DiskMisses = ds.Misses
		st.DiskReadErrs = ds.ReadErrs
		st.DiskWriteErrs = ds.WriteErrs
		st.DiskEvictions = ds.Evictions
		st.DiskSegments = ds.Segments
		st.DiskEntries = ds.Entries
		st.DiskBytes = ds.Bytes
	}
	return st
}

// AttachDisk installs a disk tier behind the memory tier. Safe to
// call once, before the cache is shared; a nil receiver or nil disk
// is a no-op.
func (c *Cache) AttachDisk(d *Disk) {
	if c == nil || d == nil {
		return
	}
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
}

// HasDisk reports whether a disk tier backs the cache.
func (c *Cache) HasDisk() bool { return c.diskTier() != nil }

// diskTier returns the attached disk tier, if any.
func (c *Cache) diskTier() *Disk {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	return d
}

// MarkRequested records that key has been asked for and reports
// whether it had been asked for before. The optimizer's repeat-eval
// tracker uses this so its dedup scope matches the cache's sharing
// scope (process-wide with a shared cache, rather than per-Optimize).
func (c *Cache) MarkRequested(key string) bool {
	c.mu.Lock()
	dup := c.requested[key]
	c.requested[key] = true
	c.mu.Unlock()
	return dup
}

// RecordRequest books one cache request against the repeat-eval
// accounting: optimize.evals counts every request and
// optimize.repeat_evals counts re-requests of a key this cache has
// seen before. Every consumer of the cache outside the optimizer's
// own eval tracker (port optimization, flow reference metrics) must
// call this before Do so the checktrace invariant
// evcache.hits == optimize.repeat_evals holds for the whole trace,
// not just the optimize stage. Nil-safe on both receiver and trace;
// a disabled trace skips the bookkeeping entirely (matching the
// optimizer, which only tracks when tracing).
func (c *Cache) RecordRequest(tr *obs.Trace, key string) {
	if c == nil || !tr.Enabled() {
		return
	}
	dup := c.MarkRequested(key)
	tr.Counter("optimize.evals").Inc()
	if dup {
		tr.Counter("optimize.repeat_evals").Inc()
	}
}

// DoCtx returns the entry for key, computing it at most once. On a
// hit (including waiting out another goroutine's in-flight
// computation) the caller receives a deep copy, free to mutate. On a
// miss the computed entry is returned as-is and a deep copy is
// stored, so the cache never aliases the caller's live layout.
// Counters land on the context's trace: evcache.hits, evcache.misses,
// evcache.bytes, and the disk tier's.
//
// A failed or canceled in-flight computation never poisons waiters:
// each waiter wakes, re-checks, and (with a healthy context of its
// own) re-attempts the computation; a waiter whose own context is
// done returns that context's error instead of the first caller's.
// The computation slot is panic-safe — a panicking compute releases
// the key and wakes the waiters before the panic propagates, so a
// recovered worker crash cannot strand other goroutines or corrupt
// the cache.
func (c *Cache) DoCtx(ctx context.Context, key string, compute func() (*Entry, error)) (*Entry, error) {
	tr := obs.From(ctx)
	inj := fault.From(ctx)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			c.hits.Add(1)
			tr.Counter("evcache.hits").Inc()
			return e.clone(), nil
		}
		if ch, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-ch:
				// Re-check: the computation either stored an entry
				// (hit) or failed (loop and become the computer
				// ourselves).
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		c.inflight[key] = ch
		c.mu.Unlock()

		ent, err := c.runCompute(ctx, tr, key, ch, inj, compute)
		if err != nil {
			return nil, err
		}
		c.misses.Add(1)
		tr.Counter("evcache.misses").Inc()
		tr.Counter("evcache.bytes").Add(ent.approxBytes())
		return ent, nil
	}
}

// runCompute executes the single-flight computation for key, storing
// the result on success and always releasing the in-flight slot —
// including when compute panics — so waiters never block forever.
// With a disk tier attached, the disk is consulted before computing
// (a disk hit skips the computation entirely but still counts as a
// memory-tier miss, keeping evcache.hits == optimize.repeat_evals on
// a warm run) and a fresh computation is written through. Disk
// failures in either direction degrade: a bad read computes, a bad
// write serves from memory only.
func (c *Cache) runCompute(ctx context.Context, tr *obs.Trace, key string, ch chan struct{}, inj *fault.Injector, compute func() (*Entry, error)) (ent *Entry, err error) {
	done := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if done && err == nil {
			stored := ent.clone()
			c.entries[key] = stored
			c.bytes.Add(stored.approxBytes())
		}
		c.mu.Unlock()
		close(ch)
	}()
	if d := c.diskTier(); d != nil {
		if de, ok := d.get(ctx, key); ok {
			tr.Counter("evcache.disk_hits").Inc()
			done = true
			return de, nil
		}
		tr.Counter("evcache.disk_misses").Inc()
	}
	if err = inj.Hit(ctx, fault.SiteEvcacheCompute); err != nil {
		done = true
		return nil, err
	}
	ent, err = compute()
	done = true
	if err == nil {
		if d := c.diskTier(); d != nil {
			evicted, werr := d.put(key, ent)
			if werr != nil {
				tr.Counter("evcache.disk_write_errors").Inc()
			}
			if evicted > 0 {
				tr.Counter("evcache.disk_evictions").Add(int64(evicted))
			}
		}
	}
	return ent, err
}
