package evcache

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// StoreLog records every entry the caches store while it is
// installed, with a content digest taken as the entry was stored.
type StoreLog struct {
	mu     sync.Mutex
	stores map[*Cache]map[string]storedEntry
}

type storedEntry struct {
	e   *Entry
	sum uint64
}

// TrackStores installs a StoreLog for the rest of the test. Tests that
// call it must not run in parallel with other tests of the package.
func TrackStores(t testing.TB) *StoreLog {
	l := &StoreLog{stores: map[*Cache]map[string]storedEntry{}}
	storeHook = func(c *Cache, key string, e *Entry) {
		sum := digest(e)
		l.mu.Lock()
		defer l.mu.Unlock()
		m := l.stores[c]
		if m == nil {
			m = map[string]storedEntry{}
			l.stores[c] = m
		}
		m[key] = storedEntry{e: e, sum: sum}
	}
	t.Cleanup(func() { storeHook = nil })
	return l
}

// Len returns how many entries c has stored since the log was
// installed.
func (l *StoreLog) Len(c *Cache) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.stores[c])
}

// Digests returns, by key, the content digest of every entry c has
// stored since the log was installed, taken as it was stored.
func (l *StoreLog) Digests(c *Cache) map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.stores[c]))
	for key, s := range l.stores[c] {
		out[key] = s.sum
	}
	return out
}

// Changed lists every recorded entry whose content no longer matches
// its digest, or that its cache no longer holds under its key.
func (l *StoreLog) Changed() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for c, m := range l.stores {
		for key, s := range m {
			c.mu.Lock()
			cur := c.entries[key]
			c.mu.Unlock()
			if cur != s.e {
				out = append(out, key+": the cache holds another entry")
			}
			if digest(s.e) != s.sum {
				out = append(out, key+": the stored entry changed")
			}
		}
	}
	sort.Strings(out)
	return out
}

// HitCheck recomputes every hit the caches serve while it is
// installed, from the requesting caller's own compute, and compares
// the recomputed entry with the served one by digest.
type HitCheck struct {
	mu      sync.Mutex
	checked map[*Cache]int64
	keys    map[*Cache][]string
	diffs   []string
}

// CheckHits installs a HitCheck for the rest of the test. Tests that
// call it must not run in parallel with other tests of the package.
func CheckHits(t testing.TB) *HitCheck {
	h := &HitCheck{checked: map[*Cache]int64{}, keys: map[*Cache][]string{}}
	hitHook = func(c *Cache, key string, served *Entry, compute func() (*Entry, error)) {
		fresh, err := compute()
		var diff string
		switch {
		case err != nil:
			diff = key + ": recompute failed: " + err.Error()
		case digest(fresh) != digest(served):
			diff = key + ": the served entry differs from the requester's recompute"
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		h.checked[c]++
		h.keys[c] = append(h.keys[c], key)
		if diff != "" {
			h.diffs = append(h.diffs, diff)
		}
	}
	t.Cleanup(func() { hitHook = nil })
	return h
}

// Checked returns how many of c's hits have been recomputed.
func (h *HitCheck) Checked(c *Cache) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.checked[c]
}

// Keys lists the keys of c's recomputed hits, sorted and without
// repeats.
func (h *HitCheck) Keys(c *Cache) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := slices.Clone(h.keys[c])
	sort.Strings(out)
	return slices.Compact(out)
}

// Diffs lists every hit whose recompute differed from the served
// entry, sorted and without repeats.
func (h *HitCheck) Diffs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := slices.Clone(h.diffs)
	sort.Strings(out)
	return slices.Compact(out)
}

// Stored returns the entry c holds for key, or nil.
func (c *Cache) Stored(key string) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// digest hashes everything an entry holds: it follows every pointer,
// visits slices element by element and maps in sorted key order, and
// hashes floats by their bits.
func digest(e *Entry) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(e))
	return h.Sum64()
}

func hashValue(h hash.Hash64, v reflect.Value) {
	put := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		fallthrough
	case reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			panic("digest: map key " + v.Type().Key().String() + " has no order")
		}
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		put(uint64(v.Len()))
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			hashValue(h, k)
			hashValue(h, v.MapIndex(k))
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	default:
		panic("digest: no rule for kind " + v.Kind().String())
	}
}
