// Package evcache is the concurrency-safe memoization cache for
// primitive layout evaluations, the one path every evaluation takes.
// One evaluation (extraction + the primitive's SPICE testbenches) is
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
// The cache's second kind of entry is a benchmark's circuit-level
// evaluation of an assembled netlist (the flow's flow.eval stage),
// keyed by NetlistKey on the netlist's content and stored as
// Entry.Eval, so a request that repeats an earlier one simulates
// nothing.
//
// Correctness rests on two properties:
//
//   - Shared immutable entries: the cache stores the entry a
//     computation returns, or the decoded entry of a disk hit, as it
//     is, and every later request, and every waiter of the
//     computation, receives that stored entry itself. So a compute
//     function must return memory no caller holds (the optimizer
//     extracts a private clone of the caller's layout), and no one
//     may write to a stored entry or to anything it points to: its
//     Layout (the Wires map and each WireEst included), Ex, Eval (the
//     Values map included) and Values. A caller that needs a changed
//     layout clones it first, as tuning does.
//     TestStoredEntriesNeverChange digests every entry as it is stored
//     and checks the digests after every circuit's flows, cold, warm
//     and warm from disk; TestEveryHitMatchesItsRecompute recomputes
//     every hit from the requester's own inputs and compares.
//   - Single flight: concurrent requests for the same uncomputed key
//     block on one computation instead of racing duplicate SPICE
//     runs. Repeated work is counted once, as evcache.hits: a request
//     served from memory, including every waiter of an in-flight
//     computation, is a hit; a computation or a disk read is a miss.
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
	"encoding/hex"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"primopt/internal/cellgen"
	"primopt/internal/circuit"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/obs"
	"primopt/internal/primlib"
	"primopt/internal/spice"
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
//
// Keys name the inputs of a computation, not its code, so any change
// that moves a cached result bumps it too: a primitive testbench, a
// benchmark evaluation (circuits.Benchmark.Eval), or the simulator.
// Cache directories hold post-layout metrics (NetlistKey) as well as
// primitive evaluations. The NetlistKey entries came in at v2: their
// keys are new, so no older entry can answer them. v3 came with the
// primitive AC testbenches' spot solve (.ac lin 1 f f), which pivots
// the frequency read afresh where the sweep carried a pivot order
// over from the point before: 21 of 2,574 primitive entries (every
// circuit in every mode at seeds 1 and 4) moved in their last bits,
// by at most 4e-15 relative, so a v2 directory would serve bits a
// cold run no longer computes. TestPinnedEntries pins what every run
// stores.
const SchemaVersion = 3

// Entry is one cached evaluation. Layout evaluations fill every
// field; schematic reference evaluations (no layout) and circuit
// evaluations (NetlistKey, the metrics in Eval.Values) carry only
// Eval.
type Entry struct {
	Layout *cellgen.Layout
	Ex     *extract.Extracted
	Eval   *primlib.Eval
	Cost   float64 // Eq. (5), percent points
	Values []cost.Value
}

// approxBytes estimates the retained size of an entry, for the
// evcache.bytes counter and Stats.Bytes. It bounds nothing: the memory
// tier is unbounded, and the disk tier bounds itself by the bytes it
// writes. It is an accounting estimate (struct sizes plus per-element
// costs), not a precise heap measurement. Alias-aware: a stored
// entry's Layout is normally the same object as Ex.Layout (the
// optimizer's compute builds it so, and decoding a disk entry
// re-establishes it), so that layout is charged exactly once; an
// entry whose extraction carries a distinct layout is charged for
// both — the earlier version never looked at Ex.Layout at all,
// undercounting whenever the two diverged.
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
// pdkFP is the Fingerprint of the Tech the caller evaluates with,
// computed once per flow run and passed down rather than computed
// per key; it is never stored on the Tech, which the ablation harness
// copies by value and tests edit, so a stored fingerprint could go
// stale.
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
//
// The text is the on-disk key, so its bytes are part of the disk
// format: integers print as fmt's %d does and floats as its %g does
// (strconv's shortest 'g' form), pinned by TestKeyGolden, and a
// change to any byte needs a SchemaVersion bump.
//
// A caller that builds many keys for one primitive renders the
// primitive's part once with NewKeyPrefix and its keys with
// KeyPrefix.Key, which give the same bytes.
func Key(pdkFP string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias, lay *cellgen.Layout, routes map[string]extract.Route) string {
	var buf [512]byte
	b := appendPrefix(buf[:0], pdkFP, e, sz, bias)
	return string(appendLayout(b, lay, routes))
}

// KeyPrefix is the per-primitive part of Key, rendered once: the
// schema version, the PDK fingerprint, the kind, the sizing and the
// projected bias.
type KeyPrefix struct {
	text string
}

// NewKeyPrefix renders the part of Key that its first four arguments
// decide.
func NewKeyPrefix(pdkFP string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias) KeyPrefix {
	var buf [256]byte
	return KeyPrefix{text: string(appendPrefix(buf[:0], pdkFP, e, sz, bias))}
}

// Key renders Key(pdkFP, e, sz, bias, lay, routes) for the primitive
// p was rendered for, appending only the layout and route part.
func (p KeyPrefix) Key(lay *cellgen.Layout, routes map[string]extract.Route) string {
	var buf [512]byte
	b := append(buf[:0], p.text...)
	return string(appendLayout(b, lay, routes))
}

// appendPrefix appends Key's per-primitive part.
func appendPrefix(b []byte, pdkFP string, e *primlib.Entry, sz primlib.Sizing, bias primlib.Bias) []byte {
	bias = e.TestbenchBias(bias)
	b = appendInt(b, "v", SchemaVersion)
	b = append(b, "|pdk="...)
	b = append(b, pdkFP...)
	b = append(b, '|')
	b = append(b, e.Kind...)
	b = appendInt(b, "|fins=", int64(sz.TotalFins))
	b = appendInt(b, ";L=", sz.L)
	b = appendInt(b, ";rB=", int64(sz.RatioB))
	b = appendG(b, ";I=", sz.NominalI)
	b = appendG(b, "|vdd=", bias.Vdd)
	b = appendG(b, ";vcm=", bias.VCM)
	b = appendG(b, ";vd=", bias.VD)
	b = appendG(b, ";it=", bias.ITail)
	b = appendG(b, ";cl=", bias.CLoad)
	b = appendG(b, ";vctl=", bias.VCtrl)
	return appendG(b, ";vcas=", bias.VCasc)
}

// appendLayout appends Key's layout and route part.
func appendLayout(b []byte, lay *cellgen.Layout, routes map[string]extract.Route) []byte {
	if lay == nil {
		b = append(b, "|schematic"...)
	} else {
		c := lay.Config
		b = appendInt(b, "|cfg=", int64(c.NFin))
		b = appendInt(b, "/", int64(c.NF))
		b = appendInt(b, "/", int64(c.M))
		b = appendInt(b, "/", int64(c.Dummies))
		b = append(b, '/')
		b = append(b, c.Pattern.String()...)
		// A primitive has a few wires and ports (at most 7), so their
		// names sort in stack arrays; more would spill to the heap.
		var buf [16]string
		names := buf[:0]
		for w := range lay.Wires {
			names = append(names, w)
		}
		slices.Sort(names)
		for _, w := range names {
			b = append(b, '|')
			b = append(b, w...)
			b = appendInt(b, "=", int64(lay.Wires[w].NWires))
		}
	}
	if len(routes) > 0 {
		var buf [16]string
		ports := buf[:0]
		for w := range routes {
			ports = append(ports, w)
		}
		slices.Sort(ports)
		for _, w := range ports {
			r := routes[w]
			b = append(b, "|r:"...)
			b = append(b, w...)
			b = appendInt(b, "=", int64(r.Layer))
			b = appendInt(b, "/", r.Length)
			b = appendInt(b, "/", int64(r.NWires))
			b = appendInt(b, "/", int64(r.PinLayer))
			b = appendInt(b, "/", int64(r.Vias))
		}
	}
	return b
}

// NetlistKey renders the key of benchmark bench's evaluation of the
// netlist nl (circuits.Benchmark.Eval), the cache's second kind of
// entry. An evaluation reads only the tech and the netlist, so the key
// is the schema version, the PDK fingerprint pdkFP, the benchmark name
// (which picks the testbench) and spice.NetlistDigest of nl's devices,
// in hex. Like Key's text it is part of the disk format.
func NetlistKey(pdkFP, bench string, nl *circuit.Netlist) string {
	sum := spice.NetlistDigest(nl)
	var buf [160]byte
	b := appendInt(buf[:0], "v", SchemaVersion)
	b = append(b, "|pdk="...)
	b = append(b, pdkFP...)
	b = append(b, "|eval="...)
	b = append(b, bench...)
	b = append(b, "|nl="...)
	b = hex.AppendEncode(b, sum[:])
	return string(b)
}

// appendInt appends sep and v as fmt's %d prints it.
func appendInt(b []byte, sep string, v int64) []byte {
	return strconv.AppendInt(append(b, sep...), v, 10)
}

// appendG appends sep and v as fmt's %g prints it: the shortest
// representation that round-trips, including for -0, subnormals,
// ±Inf and NaN.
func appendG(b []byte, sep string, v float64) []byte {
	return strconv.AppendFloat(append(b, sep...), v, 'g', -1, 64)
}

// Cache is a concurrency-safe memoization table of evaluation
// entries with single-flight computation. The zero value is not
// usable; call New, or Open for a cache backed by the disk tier:
// misses consult the disk before computing, and successful
// computations are written through.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*Entry
	inflight map[string]chan struct{}
	disk     *Disk // set by Open, never changed

	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		entries:  make(map[string]*Entry),
		inflight: make(map[string]chan struct{}),
	}
}

// Open returns an empty cache backed by the disk tier rooted at dir,
// bounded to maxBytes (0 takes the 1 GiB default); an empty dir gives
// a memory-only cache. Keys are content-addressed, so one directory is
// safe to share across runs, benchmarks and PDK variants, and a warm
// one replays every evaluation without solving a SPICE deck.
func Open(dir string, maxBytes int64) (*Cache, error) {
	c := New()
	if dir == "" {
		return c, nil
	}
	d, err := OpenDisk(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	c.disk = d
	return c, nil
}

// Close flushes and closes the disk tier, if any. Stats stays
// readable; callers close once every run on the cache has returned.
func (c *Cache) Close() error { return c.disk.Close() }

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

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	st := Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: n,
		Bytes:   c.bytes.Load(),
	}
	if d := c.disk; d != nil {
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

// DoCtx returns the entry for key, computing it at most once. Every
// caller receives the stored entry itself — the entry compute
// returned, or a disk hit's decoded entry — shared with every other
// caller: it must not write to it or to anything it points to, and
// compute must return an entry no caller goes on writing to. A nil
// entry with a nil error is an error naming the key; nothing is
// stored. Counters land on the context's trace: evcache.hits (a
// request served from memory, waiters of an in-flight computation
// included), evcache.misses, evcache.bytes, and the disk tier's.
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
			if hitHook != nil {
				hitHook(c, key, e, compute)
			}
			return e, nil
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

// The test-only hooks, nil outside tests. storeHook sees each entry a
// cache stores before any request can read it; the immutability tests
// record a content digest of every stored entry there. hitHook sees
// each hit: the served entry and the requester's own compute, which
// the hit tests run to check the served entry against.
var (
	storeHook func(c *Cache, key string, stored *Entry)
	hitHook   func(c *Cache, key string, served *Entry, compute func() (*Entry, error))
)

// runCompute executes the single-flight computation for key, storing
// the result on success and always releasing the in-flight slot —
// including when compute panics — so waiters never block forever.
// With a disk tier attached, the disk is consulted before computing
// (a disk hit skips the computation entirely but still counts as a
// memory-tier miss) and a fresh computation is written through. Disk
// failures in either direction degrade: a bad read computes, a bad
// write serves from memory only.
func (c *Cache) runCompute(ctx context.Context, tr *obs.Trace, key string, ch chan struct{}, inj *fault.Injector, compute func() (*Entry, error)) (ent *Entry, err error) {
	defer func() {
		// A panicking compute leaves ent nil: nothing is stored.
		store := err == nil && ent != nil
		if store && storeHook != nil {
			storeHook(c, key, ent)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if store {
			c.entries[key] = ent
			c.bytes.Add(ent.approxBytes())
		}
		c.mu.Unlock()
		close(ch)
	}()
	if d := c.disk; d != nil {
		if de, ok := d.get(ctx, key); ok {
			tr.Counter("evcache.disk_hits").Inc()
			return de, nil
		}
		tr.Counter("evcache.disk_misses").Inc()
	}
	if err = inj.Hit(ctx, fault.SiteEvcacheCompute); err != nil {
		return nil, err
	}
	ent, err = compute()
	if err == nil && ent == nil {
		err = errors.New("evcache: compute returned no entry for " + key)
	}
	if err == nil {
		if d := c.disk; d != nil {
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
