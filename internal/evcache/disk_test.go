package evcache

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/obs"
	"primopt/internal/primlib"
)

func diskEntryFor(cost float64) *Entry {
	lay := testLayout()
	return &Entry{
		Layout: lay,
		Ex:     &extract.Extracted{Layout: lay},
		Eval:   &primlib.Eval{Values: map[string]float64{"gain": cost * 2}, Sims: 3},
		Cost:   cost,
	}
}

func mustPut(t *testing.T, d *Disk, key string, e *Entry) {
	t.Helper()
	if _, err := d.put(key, e); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "k1", diskEntryFor(1.5))
	mustPut(t, d, "k2", diskEntryFor(2.5))

	// Same process: served from the index immediately.
	got, ok := d.get(context.Background(), "k1")
	if !ok || got.Cost != 1.5 {
		t.Fatalf("get k1 = %+v, %v", got, ok)
	}
	if got.Ex == nil || got.Layout != got.Ex.Layout {
		t.Error("decoded entry lost the Layout/Ex.Layout alias")
	}
	if got.Eval == nil || got.Eval.Values["gain"] != 3.0 {
		t.Errorf("decoded eval = %+v", got.Eval)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// New process: index rebuilt by scanning.
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for key, cost := range map[string]float64{"k1": 1.5, "k2": 2.5} {
		got, ok := d2.get(context.Background(), key)
		if !ok || got.Cost != cost {
			t.Errorf("reopened get %q = %+v, %v (want cost %g)", key, got, ok, cost)
		}
	}
	if _, ok := d2.get(context.Background(), "absent"); ok {
		t.Error("absent key served")
	}
	st := d2.Stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskSchematicEntryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustPut(t, d, "sch", &Entry{Eval: &primlib.Eval{Values: map[string]float64{"gm": 7}, Sims: 1}})
	got, ok := d.get(context.Background(), "sch")
	if !ok || got.Layout != nil || got.Ex != nil || got.Eval.Values["gm"] != 7 {
		t.Errorf("schematic entry = %+v, %v", got, ok)
	}
}

// TestDiskTornTail is the crash-safety matrix: a segment truncated at
// every byte offset inside its last record's span must reopen with
// the torn record dropped (never served), every earlier record
// served, and the next append repairing the tail so a further reopen
// serves everything again.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "a", diskEntryFor(1))
	mustPut(t, d, "b", diskEntryFor(2))
	preB := d.Stats().Bytes
	mustPut(t, d, "c", diskEntryFor(3))
	full := d.Stats().Bytes
	d.Close()

	seg := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != full || preB >= full {
		t.Fatalf("layout assumption broken: file %d bytes, preB %d, full %d", len(blob), preB, full)
	}

	// Cut points spanning the last record: right after the previous
	// record (clean cut), mid record-header, end of header, mid key,
	// and one byte short of complete.
	cuts := []int64{preB, preB + 3, preB + recHdrLen, preB + recHdrLen + 1, full - 1}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			if err := os.WriteFile(seg, blob[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatalf("reopen after truncation: %v", err)
			}
			// The torn record is dropped, never served.
			if _, ok := d.get(context.Background(), "c"); ok {
				t.Fatal("torn record served")
			}
			// Everything before the tear is intact.
			for key, cost := range map[string]float64{"a": 1, "b": 2} {
				got, ok := d.get(context.Background(), key)
				if !ok || got.Cost != cost {
					t.Fatalf("pre-tear record %q = %+v, %v", key, got, ok)
				}
			}
			// The next append lands on a repaired tail...
			mustPut(t, d, "c", diskEntryFor(3))
			got, ok := d.get(context.Background(), "c")
			if !ok || got.Cost != 3 {
				t.Fatalf("re-put after repair = %+v, %v", got, ok)
			}
			d.Close()
			// ...and a further reopen serves all three records.
			d2, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			for key, cost := range map[string]float64{"a": 1, "b": 2, "c": 3} {
				got, ok := d2.get(context.Background(), key)
				if !ok || got.Cost != cost {
					t.Fatalf("post-repair reopen %q = %+v, %v", key, got, ok)
				}
			}
			if fi, err := os.Stat(seg); err != nil || fi.Size() != full {
				t.Errorf("repaired segment size = %v (err %v), want %d", fi, err, full)
			}
		})
	}
}

// TestDiskCorruptRecordDegrades flips a payload byte in place: the
// open-time scan must drop the record (checksum mismatch tears the
// segment at that boundary) while earlier records survive.
func TestDiskCorruptRecordDegrades(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "a", diskEntryFor(1))
	preB := d.Stats().Bytes
	mustPut(t, d, "b", diskEntryFor(2))
	d.Close()

	seg := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF // corrupt b's payload tail
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.get(context.Background(), "b"); ok {
		t.Error("corrupt record served")
	}
	if got, ok := d2.get(context.Background(), "a"); !ok || got.Cost != 1 {
		t.Errorf("record before corruption = %+v, %v", got, ok)
	}
	if st := d2.Stats(); st.Bytes != preB {
		t.Errorf("validated size = %d, want %d (corruption boundary)", st.Bytes, preB)
	}
}

// TestDiskSchemaMismatch: segments stamped with another schema
// version are never indexed and go first at eviction.
func TestDiskSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "a", diskEntryFor(1))
	d.Close()

	// Rewrite the header with a future schema version.
	seg := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(blob[4:8], SchemaVersion+1)
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.get(context.Background(), "a"); ok {
		t.Error("foreign-schema record served")
	}
	st := d2.Stats()
	if st.Entries != 0 || st.Segments != 1 || st.Bytes != int64(len(blob)) {
		t.Errorf("stats = %+v", st)
	}
	// A new put must not adopt the foreign segment.
	mustPut(t, d2, "b", diskEntryFor(2))
	if _, err := os.Stat(filepath.Join(dir, segName(2))); err != nil {
		t.Errorf("put adopted a foreign-schema segment: %v", err)
	}
	// The foreign segment is the first eviction victim.
	removed, _ := d2.GC(d2.Stats().Bytes - int64(len(blob)))
	if removed != 1 {
		t.Errorf("GC removed %d segments, want 1", removed)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Error("foreign segment survived GC")
	}
	if got, ok := d2.get(context.Background(), "b"); !ok || got.Cost != 2 {
		t.Errorf("live record lost to GC: %+v, %v", got, ok)
	}
	d2.Close()
}

// TestDiskEviction: tiny segment bound forces rotation; the size
// bound then retires whole least-recently-used segments, and evicted
// keys fall out of the index.
func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	// Segments rotate almost immediately (every record overflows the
	// bound), so each record lands in its own segment.
	d, err := OpenDisk(dir, DiskOptions{SegmentBytes: 1, MaxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 1; i <= 4; i++ {
		mustPut(t, d, fmt.Sprintf("k%d", i), diskEntryFor(float64(i)))
	}
	st := d.Stats()
	if st.Segments != 4 || st.Entries != 4 {
		t.Fatalf("pre-eviction stats = %+v", st)
	}
	// Touch k1 so k2 becomes the LRU victim.
	if _, ok := d.get(context.Background(), "k1"); !ok {
		t.Fatal("k1 missing")
	}
	removed, remaining := d.GC(st.Bytes - 1) // one byte over: exactly one segment goes
	if removed != 1 {
		t.Fatalf("GC removed %d, want 1 (remaining %d)", removed, remaining)
	}
	if _, ok := d.get(context.Background(), "k2"); ok {
		t.Error("LRU victim k2 still served after eviction")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, ok := d.get(context.Background(), k); !ok {
			t.Errorf("%s evicted, want k2 only", k)
		}
	}
	if st := d.Stats(); st.Evictions != 1 || st.Segments != 3 {
		t.Errorf("post-eviction stats = %+v", st)
	}
}

// TestDiskFaultDegradesToCompute arms the evcache.disk site: an
// injected read failure must degrade to a recompute — no panic, no
// error to the caller — and count a read error.
func TestDiskFaultDegradesToCompute(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			c := New()
			c.AttachDisk(d)
			tr := obs.New()

			// Warm the disk through the cache.
			if _, err := c.DoCtx(obs.With(context.Background(), tr), "k", func() (*Entry, error) { return diskEntryFor(1), nil }); err != nil {
				t.Fatal(err)
			}

			// Fresh memory tier, same disk: an armed read fault forces
			// the compute path.
			c2 := New()
			c2.AttachDisk(d)
			inj, err := fault.New(1, fmt.Sprintf("evcache.disk:%s@1+", mode))
			if err != nil {
				t.Fatal(err)
			}
			ctx := fault.With(context.Background(), inj)
			computed := false
			got, err := c2.DoCtx(obs.With(ctx, tr), "k", func() (*Entry, error) {
				computed = true
				return diskEntryFor(9), nil
			})
			if err != nil || got == nil {
				t.Fatalf("faulted read must degrade, got err %v", err)
			}
			if !computed || got.Cost != 9 {
				t.Errorf("degraded path did not compute: computed=%v cost=%g", computed, got.Cost)
			}
			if st := d.Stats(); st.ReadErrs == 0 {
				t.Error("read error not counted")
			}
			if v := tr.Counter("evcache.disk_read_errors").Value(); v == 0 {
				t.Error("evcache.disk_read_errors not on the trace")
			}
		})
	}
}

// TestCacheDiskIntegration: a second cache over the same directory
// serves from disk without computing — the zero-SPICE warm run in
// miniature — and disk hits still count as memory-tier misses so
// evcache.hits == repeat-requests holds on warm runs.
func TestCacheDiskIntegration(t *testing.T) {
	dir := t.TempDir()
	tr := obs.New()

	d1, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := New()
	c1.AttachDisk(d1)
	if _, err := c1.DoCtx(obs.With(context.Background(), tr), "k", func() (*Entry, error) { return diskEntryFor(4), nil }); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	// "Second process": fresh cache, reopened disk.
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	c2 := New()
	c2.AttachDisk(d2)
	tr2 := obs.New()
	got, err := c2.DoCtx(obs.With(context.Background(), tr2), "k", func() (*Entry, error) {
		t.Fatal("warm run must not compute")
		return nil, nil
	})
	if err != nil || got.Cost != 4 {
		t.Fatalf("warm get = %+v, %v", got, err)
	}
	st := c2.Stats()
	if !st.DiskTier || st.DiskHits != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Errorf("warm stats = %+v (disk hit must be a memory-tier miss)", st)
	}
	if v := tr2.Counter("evcache.disk_hits").Value(); v != 1 {
		t.Errorf("evcache.disk_hits = %d", v)
	}
	// The memory tier now holds the entry: the next request is a pure
	// memory hit, not a second disk read.
	if _, err := c2.DoCtx(obs.With(context.Background(), tr2), "k", func() (*Entry, error) { return nil, fmt.Errorf("no") }); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Errorf("memory tier not filled from disk: %+v", st)
	}
}

// TestDiskHitStoredOnceAndShared: a disk hit's decoded entry belongs
// to no one else, so the cache stores it without a copy and serves
// that same entry to the computing caller and every later request.
func TestDiskHitStoredOnceAndShared(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d1, "k", diskEntryFor(4))
	d1.Close()

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	log := TrackStores(t)
	c := New()
	c.AttachDisk(d2)
	var got [3]*Entry
	for i := range got {
		got[i], err = c.DoCtx(context.Background(), "k", func() (*Entry, error) {
			t.Fatal("a disk hit must not compute")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stored := c.Stored("k")
	for i, e := range got {
		if e != stored {
			t.Errorf("request %d got %p, want the stored entry %p", i, e, stored)
		}
	}
	if stored.Layout != stored.Ex.Layout {
		t.Error("decoded entry lost the Layout/Ex alias")
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want one disk hit (a memory miss) and two memory hits", st)
	}
	if n := log.Len(c); n != 1 {
		t.Errorf("%d stores recorded, want 1", n)
	}
	for _, d := range log.Changed() {
		t.Error(d)
	}
}

// TestRecordRequest pins the accounting every non-optimizer cache
// consumer relies on: one optimize.evals per request, one
// optimize.repeat_evals per re-request, nothing when untraced.
func TestRecordRequest(t *testing.T) {
	c := New()
	tr := obs.New()
	c.RecordRequest(tr, "x")
	c.RecordRequest(tr, "x")
	c.RecordRequest(tr, "y")
	if v := tr.Counter("optimize.evals").Value(); v != 3 {
		t.Errorf("optimize.evals = %d, want 3", v)
	}
	if v := tr.Counter("optimize.repeat_evals").Value(); v != 1 {
		t.Errorf("optimize.repeat_evals = %d, want 1", v)
	}
	// Nil-safe in every position.
	c.RecordRequest(nil, "z")
	var nilC *Cache
	nilC.RecordRequest(tr, "z")
}
