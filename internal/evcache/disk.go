// Disk tier: a persistent, crash-safe, content-addressed store of
// evaluation entries backing the in-memory cache. The design goals,
// in order:
//
//  1. Never serve a wrong or torn result. Keys are fully
//     content-addressed (schema version + PDK fingerprint + snapshot,
//     see Key), every record carries a checksum verified on both scan
//     and read, and segments from another schema generation are never
//     indexed.
//  2. Crash safety by construction, not by fsync discipline. Segments
//     are append-only; a crash mid-write leaves a torn tail that the
//     next open detects (short header, implausible length, or
//     checksum mismatch), drops, and later truncates away before the
//     next append. Everything before the tear is served normally.
//  3. Degrade, never crash. A read that fails for any reason —
//     corrupt bytes, vanished file, injected fault — counts a read
//     error, evicts the bad index entry, and falls back to compute.
//
// On-disk format. A segment file seg-NNNNNNNN.evc is an 8-byte
// header ("EVCS" magic + big-endian uint32 schema version) followed
// by records:
//
//	uint32 payloadLen | uint16 keyLen | uint64 fnv64a(key+payload)
//	key bytes | gob payload
//
// The in-memory index (key -> segment/offset) is rebuilt by scanning
// every segment at open; later segments win duplicate keys, so an
// append-only update is just a re-put. Eviction retires whole
// least-recently-used segments, so reclaiming space is one unlink —
// no compaction, no in-place rewrites to tear.
package evcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"primopt/internal/cellgen"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/fault"
	"primopt/internal/obs"
	"primopt/internal/primlib"
)

const (
	segMagic   = "EVCS"
	headerLen  = 8  // magic + schema version
	recHdrLen  = 14 // payloadLen(4) + keyLen(2) + checksum(8)
	maxPayload = 1 << 30
)

// segment is the in-memory state of one segment file. size is the
// validated prefix length (header plus intact records) — for a torn
// segment this is strictly less than the file size, and adoption as
// the active segment truncates the file down to it.
type segment struct {
	seq        int
	path       string
	size       int64
	torn       bool
	lastUse    int64 // logical clock, for LRU
	keys       int   // live index entries pointing here
	compatible bool  // header matched magic + SchemaVersion
}

// recordLoc locates one record's key+payload span inside a segment.
type recordLoc struct {
	seg        int
	keyOff     int64 // offset of the key bytes (record header already skipped)
	keyLen     int
	payloadLen int
	sum        uint64
}

// Disk is the persistent tier. All methods are safe for concurrent
// use and nil-safe; reads open the segment file per call, so a
// closed Disk still answers Stats and GC.
type Disk struct {
	dir string
	// maxBytes caps the total size of all segment files; exceeding it
	// retires whole least-recently-used segments.
	maxBytes int64
	// segmentBytes is the size at which the active segment rotates.
	segmentBytes int64

	mu       sync.Mutex
	index    map[string]recordLoc
	segments map[int]*segment
	active   *segment
	activeF  *os.File
	nextSeq  int
	clock    int64
	closed   bool

	hits      atomic.Int64
	misses    atomic.Int64
	readErrs  atomic.Int64
	writeErrs atomic.Int64
	evictions atomic.Int64
}

// DiskStats is a point-in-time snapshot of the disk tier.
type DiskStats struct {
	Hits, Misses        int64
	ReadErrs, WriteErrs int64
	Evictions           int64
	Segments, Entries   int
	Bytes               int64
}

func segName(seq int) string { return fmt.Sprintf("seg-%08d.evc", seq) }

// OpenDisk opens (creating if needed) a disk tier rooted at dir and
// rebuilds the index by scanning every segment. Torn tails are
// dropped from the index here; the tail bytes themselves are
// truncated lazily, when the segment is next adopted for appends.
// Segments with a foreign header (other schema version, other magic)
// are tracked for size accounting only — never indexed, first in
// line for eviction. The segment files together stay within maxBytes
// (0 takes 1 GiB); the active segment rotates at 4 MiB.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evcache: open disk tier: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	d := &Disk{
		dir:          dir,
		maxBytes:     maxBytes,
		segmentBytes: 4 << 20,
		index:        make(map[string]recordLoc),
		segments:     make(map[int]*segment),
		nextSeq:      1,
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("evcache: open disk tier: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var seq int
		if n, serr := fmt.Sscanf(e.Name(), "seg-%08d.evc", &seq); n == 1 && serr == nil && e.Name() == segName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		seg, recs, serr := scanSegment(dir, seq)
		if serr != nil {
			// Unreadable file: leave it untracked. It still occupies
			// disk, but a file we cannot even open is not ours to
			// account or remove.
			continue
		}
		d.clock++
		seg.lastUse = d.clock
		d.segments[seq] = seg
		for _, r := range recs {
			d.index[r.key] = r.loc // later segments override earlier
		}
		if seq >= d.nextSeq {
			d.nextSeq = seq + 1
		}
	}
	// Recount live keys per segment after all overrides settled.
	for _, s := range d.segments {
		s.keys = 0
	}
	for _, loc := range d.index {
		if s := d.segments[loc.seg]; s != nil {
			s.keys++
		}
	}
	return d, nil
}

type scannedRec struct {
	key string
	loc recordLoc
}

// scanSegment validates one segment file front to back. The scan
// stops at the first defect — short read, implausible length, or
// checksum mismatch — marking the segment torn with size set to the
// last intact boundary, so everything after a tear is invisible.
func scanSegment(dir string, seq int) (*segment, []scannedRec, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//lint:allow errflow read-only descriptor; a close error cannot lose data
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	fileSize := fi.Size()
	seg := &segment{seq: seq, path: path}

	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// Shorter than a header: nothing salvageable, not adoptable.
		seg.torn = true
		seg.size = fileSize
		return seg, nil, nil
	}
	if string(hdr[0:4]) != segMagic || binary.BigEndian.Uint32(hdr[4:8]) != SchemaVersion {
		// Foreign generation: account its bytes, serve nothing.
		seg.size = fileSize
		return seg, nil, nil
	}
	seg.compatible = true

	var recs []scannedRec
	off := int64(headerLen)
	for off < fileSize {
		var rh [recHdrLen]byte
		if _, err := io.ReadFull(io.NewSectionReader(f, off, fileSize-off), rh[:]); err != nil {
			seg.torn = true
			break
		}
		plen := int64(binary.BigEndian.Uint32(rh[0:4]))
		klen := int64(binary.BigEndian.Uint16(rh[4:6]))
		sum := binary.BigEndian.Uint64(rh[6:14])
		if klen == 0 || plen > maxPayload || off+recHdrLen+klen+plen > fileSize {
			seg.torn = true
			break
		}
		buf := make([]byte, klen+plen)
		if _, err := f.ReadAt(buf, off+recHdrLen); err != nil {
			seg.torn = true
			break
		}
		h := fnv.New64a()
		//lint:allow errflow hash.Hash.Write is documented to never return an error
		h.Write(buf)
		if h.Sum64() != sum {
			seg.torn = true
			break
		}
		recs = append(recs, scannedRec{
			key: string(buf[:klen]),
			loc: recordLoc{seg: seq, keyOff: off + recHdrLen, keyLen: int(klen), payloadLen: int(plen), sum: sum},
		})
		off += recHdrLen + klen + plen
	}
	seg.size = off
	return seg, recs, nil
}

// get looks key up in the disk tier. The fault site and every read
// failure (including an injected panic) degrade to a miss: the bad
// index entry is dropped so the key recomputes exactly once, and the
// caller falls through to compute. The fault site and the read-error
// counter belong to the run on ctx.
func (d *Disk) get(ctx context.Context, key string) (*Entry, bool) {
	if d == nil {
		return nil, false
	}
	d.mu.Lock()
	loc, ok := d.index[key]
	var path string
	if ok {
		if seg := d.segments[loc.seg]; seg != nil {
			d.clock++
			seg.lastUse = d.clock
			path = seg.path
		} else {
			ok = false
		}
	}
	d.mu.Unlock()
	if !ok {
		d.misses.Add(1)
		return nil, false
	}
	ent, err := d.readRecord(ctx, path, key, loc)
	if err != nil {
		d.readErrs.Add(1)
		obs.From(ctx).Counter("evcache.disk_read_errors").Inc()
		d.misses.Add(1)
		d.dropKey(key, loc)
		return nil, false
	}
	d.hits.Add(1)
	return ent, true
}

// readRecord re-verifies and decodes one record. The recover turns
// an injected (or real) panic during the read into an ordinary
// error, upholding degrade-never-crash for the whole read path.
func (d *Disk) readRecord(ctx context.Context, path, key string, loc recordLoc) (ent *Entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			ent, err = nil, fmt.Errorf("evcache: disk read panic: %v", r)
		}
	}()
	if err := fault.From(ctx).Hit(ctx, fault.SiteEvcacheDisk); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:allow errflow read-only descriptor; a close error cannot lose data
	defer f.Close()
	buf := make([]byte, loc.keyLen+loc.payloadLen)
	if _, err := f.ReadAt(buf, loc.keyOff); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	//lint:allow errflow hash.Hash.Write is documented to never return an error
	h.Write(buf)
	if h.Sum64() != loc.sum {
		return nil, fmt.Errorf("evcache: disk record checksum mismatch")
	}
	if string(buf[:loc.keyLen]) != key {
		return nil, fmt.Errorf("evcache: disk record key mismatch")
	}
	return decodePayload(buf[loc.keyLen:])
}

// dropKey removes a failed index entry, but only if it still points
// at the location that failed (a concurrent re-put wins).
func (d *Disk) dropKey(key string, loc recordLoc) {
	d.mu.Lock()
	if cur, ok := d.index[key]; ok && cur == loc {
		delete(d.index, key)
		if s := d.segments[loc.seg]; s != nil {
			s.keys--
		}
	}
	d.mu.Unlock()
}

// put appends one record, reports how many segments the size bound
// evicted, and returns any write error (the caller degrades to
// memory-only on error — the entry is simply not persisted). A key
// already on disk is left in place: entries are immutable functions
// of their content-addressed key, so rewriting buys nothing.
func (d *Disk) put(key string, e *Entry) (evicted int, err error) {
	if d == nil || e == nil {
		return 0, nil
	}
	if len(key) == 0 || len(key) > 0xFFFF {
		d.writeErrs.Add(1)
		return 0, fmt.Errorf("evcache: key length %d out of range", len(key))
	}
	payload, err := encodePayload(e)
	if err != nil {
		d.writeErrs.Add(1)
		return 0, err
	}
	if int64(len(payload)) > maxPayload {
		d.writeErrs.Add(1)
		return 0, fmt.Errorf("evcache: payload %d bytes exceeds limit", len(payload))
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, fmt.Errorf("evcache: disk tier closed")
	}
	if _, ok := d.index[key]; ok {
		return 0, nil
	}
	recLen := int64(recHdrLen) + int64(len(key)) + int64(len(payload))
	if err := d.ensureActive(recLen); err != nil {
		d.writeErrs.Add(1)
		return 0, err
	}
	rec := make([]byte, recLen)
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint16(rec[4:6], uint16(len(key)))
	copy(rec[recHdrLen:], key)
	copy(rec[recHdrLen+len(key):], payload)
	h := fnv.New64a()
	//lint:allow errflow hash.Hash.Write is documented to never return an error
	h.Write(rec[recHdrLen:])
	sum := h.Sum64()
	binary.BigEndian.PutUint64(rec[6:14], sum)

	off := d.active.size
	if _, werr := d.activeF.WriteAt(rec, off); werr != nil {
		d.writeErrs.Add(1)
		// Best-effort roll back of a partial append; the scan-time
		// checksum catches whatever this misses.
		//lint:allow errflow rollback after a failed write — the write error is returned, and the checksum guards a failed truncate
		_ = d.activeF.Truncate(off)
		return 0, werr
	}
	d.active.size += recLen
	d.active.keys++
	d.clock++
	d.active.lastUse = d.clock
	d.index[key] = recordLoc{seg: d.active.seq, keyOff: off + recHdrLen, keyLen: len(key), payloadLen: len(payload), sum: sum}
	n := d.evictLocked(d.maxBytes)
	if n > 0 {
		d.evictions.Add(int64(n))
	}
	return n, nil
}

// ensureActive guarantees an append target with room for recLen:
// rotating a full active segment, else adopting the newest
// compatible existing segment (truncating its torn tail — the lazy
// tail repair), else creating a fresh segment.
func (d *Disk) ensureActive(recLen int64) error {
	if d.active != nil && d.active.size > headerLen && d.active.size+recLen > d.segmentBytes {
		//lint:allow errflow rotating away from a fully-written segment; every record it holds is already checksummed on disk
		_ = d.activeF.Close()
		d.active = nil
		d.activeF = nil
	}
	if d.active != nil {
		return nil
	}
	var adopt *segment
	for _, s := range d.segments {
		if !s.compatible || s.size < headerLen {
			continue
		}
		if s.size > headerLen && s.size+recLen > d.segmentBytes {
			continue
		}
		if adopt == nil || s.seq > adopt.seq {
			adopt = s
		}
	}
	if adopt != nil {
		if f, err := os.OpenFile(adopt.path, os.O_RDWR, 0o644); err == nil {
			if terr := f.Truncate(adopt.size); terr == nil {
				adopt.torn = false
				d.active = adopt
				d.activeF = f
				return nil
			}
			//lint:allow errflow cleanup of a descriptor we failed to adopt; the fallback path below creates a fresh segment
			_ = f.Close()
		}
		// Adoption failure falls through to a fresh segment.
	}
	seq := d.nextSeq
	d.nextSeq++
	path := filepath.Join(d.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], SchemaVersion)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		//lint:allow errflow best-effort cleanup of a half-created segment; the header-write error is what the caller needs
		_ = f.Close()
		//lint:allow errflow a leftover headerless file scans as torn and is never served
		_ = os.Remove(path)
		return err
	}
	seg := &segment{seq: seq, path: path, size: headerLen, compatible: true}
	d.clock++
	seg.lastUse = d.clock
	d.segments[seq] = seg
	d.active = seg
	d.activeF = f
	return nil
}

// evictLocked retires whole least-recently-used non-active segments
// until total size fits limit. Foreign-generation segments carry no
// live keys and the oldest clocks, so they go first — exactly the
// bytes least worth keeping.
func (d *Disk) evictLocked(limit int64) int {
	if limit <= 0 {
		return 0
	}
	n := 0
	for d.totalLocked() > limit {
		var victim *segment
		for _, s := range d.segments {
			if s == d.active {
				continue
			}
			if victim == nil || s.lastUse < victim.lastUse ||
				(s.lastUse == victim.lastUse && s.seq < victim.seq) {
				victim = s
			}
		}
		if victim == nil {
			break
		}
		d.removeSegmentLocked(victim)
		n++
	}
	return n
}

func (d *Disk) totalLocked() int64 {
	var t int64
	for _, s := range d.segments {
		t += s.size
	}
	return t
}

func (d *Disk) removeSegmentLocked(s *segment) {
	//lint:allow errflow eviction is best-effort: the index entries are dropped either way, and an unremovable file is re-scanned at next open
	_ = os.Remove(s.path)
	delete(d.segments, s.seq)
	for k, loc := range d.index {
		if loc.seg == s.seq {
			delete(d.index, k)
		}
	}
}

// GC retires least-recently-used segments until the tier fits
// maxBytes, returning how many segments were removed and the bytes
// remaining. Usable on a closed Disk (the primopt cache gc command
// runs it against an otherwise idle directory).
func (d *Disk) GC(maxBytes int64) (removed int, remaining int64) {
	if d == nil {
		return 0, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	removed = d.evictLocked(maxBytes)
	if removed > 0 {
		d.evictions.Add(int64(removed))
	}
	return removed, d.totalLocked()
}

// Close stops appends. Reads open segment files per call and keep
// working; Stats stays readable (the flow snapshots them after the
// run ends).
func (d *Disk) Close() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	var err error
	if d.activeF != nil {
		err = d.activeF.Close()
		d.activeF = nil
	}
	d.active = nil
	return err
}

// Stats snapshots the disk tier (zero value for nil).
func (d *Disk) Stats() DiskStats {
	if d == nil {
		return DiskStats{}
	}
	d.mu.Lock()
	segs := len(d.segments)
	entries := len(d.index)
	total := d.totalLocked()
	d.mu.Unlock()
	return DiskStats{
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		ReadErrs:  d.readErrs.Load(),
		WriteErrs: d.writeErrs.Load(),
		Evictions: d.evictions.Load(),
		Segments:  segs,
		Entries:   entries,
		Bytes:     total,
	}
}

// diskEntry is the gob payload. Layout is encoded only when it is
// not the Ex.Layout alias (the normal case stores it once); decode
// re-establishes the alias, matching the clone invariant.
type diskEntry struct {
	Layout *cellgen.Layout
	Ex     *extract.Extracted
	Eval   *primlib.Eval
	Cost   float64
	Values []cost.Value
}

func encodePayload(e *Entry) ([]byte, error) {
	de := diskEntry{Ex: e.Ex, Eval: e.Eval, Cost: e.Cost, Values: e.Values}
	if e.Ex == nil || e.Layout != e.Ex.Layout {
		de.Layout = e.Layout
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&de); err != nil {
		return nil, fmt.Errorf("evcache: encode entry: %w", err)
	}
	return buf.Bytes(), nil
}

func decodePayload(b []byte) (*Entry, error) {
	var de diskEntry
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&de); err != nil {
		return nil, fmt.Errorf("evcache: decode entry: %w", err)
	}
	ent := &Entry{Layout: de.Layout, Ex: de.Ex, Eval: de.Eval, Cost: de.Cost, Values: de.Values}
	if ent.Ex != nil && ent.Layout == nil {
		ent.Layout = ent.Ex.Layout
	}
	return ent, nil
}
