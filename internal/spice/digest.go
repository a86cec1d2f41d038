package spice

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"primopt/internal/circuit"
)

// digest is the deck's duplicate identity: an FNV-64a hash of its
// content in a fixed order. That is the title; the devices as
// hashDevices walks them; then the analyses, the measures and the
// initial conditions by sorted net. Strings and lists are
// length-prefixed and floats enter as their bits, so two decks share a
// digest, up to hash collisions, exactly when every one of those
// fields is equal. The title counts because two testbenches of
// different metrics can otherwise hold the same circuit and
// statements.
func (d *Deck) digest() uint64 {
	h := fnv64a(14695981039346656037)
	h.str(d.Title)
	hashDevices(&h, d.Netlist.Devices)
	h.int(len(d.Analyses))
	for _, a := range d.Analyses {
		h.str(a.Kind)
		h.f64(a.FStart)
		h.f64(a.FStop)
		h.int(a.PointsPerDec)
		h.f64(a.TStep)
		h.f64(a.TStop)
		if a.UIC {
			h.int(1)
		} else {
			h.int(0)
		}
		h.str(a.Src)
		h.f64(a.Start)
		h.f64(a.Stop)
		h.f64(a.Step)
	}
	h.int(len(d.Measures))
	for _, m := range d.Measures {
		h.str(m.Analysis)
		h.str(m.Name)
		h.str(m.Kind)
		h.str(m.Expr)
		h.str(m.TrigExpr)
		h.f64(m.TrigVal)
		h.f64(m.TargVal)
		h.edge(m.TrigEdge)
		h.edge(m.TargEdge)
		h.str(m.TargExpr)
		h.f64(m.WhenVal)
		h.edge(m.Edge)
		h.f64(m.At)
		h.f64(m.From)
		h.f64(m.To)
	}
	var keyBuf [16]string
	keys := sortedKeys(keyBuf[:0], d.ICs)
	h.int(len(keys))
	for _, k := range keys {
		h.str(k)
		h.f64(d.ICs[k])
	}
	return uint64(h)
}

// NetlistDigest is the SHA-256 of nl's devices as hashDevices walks
// them, the content identity under which the evaluation cache keys a
// benchmark's evaluation of nl (evcache.NetlistKey). It walks the same
// fields as the deck digest, but a collision here would serve another
// netlist's metrics rather than miscount a duplicate, hence SHA-256.
func NetlistDigest(nl *circuit.Netlist) [sha256.Size]byte {
	b := make(byteHasher, 0, 128*len(nl.Devices))
	hashDevices(&b, nl.Devices)
	return sha256.Sum256(b)
}

// hasher receives a content walk: counts and lengths as uvarints,
// strings length-prefixed, floats as their little-endian bits. The
// deck digest's running FNV-64a and NetlistDigest's byte buffer
// implement it, so both see the same byte stream for the same devices.
type hasher interface {
	int(v int)
	str(s string)
	f64(v float64)
}

// hashDevices walks devs in order: per device its type, name, nets,
// parameters by sorted key and waveform.
func hashDevices(h hasher, devs []*circuit.Device) {
	var keyBuf [16]string // a device has at most ten parameters
	keys := keyBuf[:0]
	h.int(len(devs))
	for _, dev := range devs {
		h.int(int(dev.Type))
		h.str(dev.Name)
		h.int(len(dev.Nets))
		for _, n := range dev.Nets {
			h.str(n)
		}
		keys = sortedKeys(keys[:0], dev.Params)
		h.int(len(keys))
		for _, k := range keys {
			h.str(k)
			h.f64(dev.Params[k])
		}
		if w := dev.Wave; w == nil {
			h.int(0)
		} else {
			h.int(1)
			h.str(w.Kind)
			hashFloats(h, w.Args)
			hashFloats(h, w.Times)
			hashFloats(h, w.Vals)
		}
	}
}

func hashFloats(h hasher, v []float64) {
	h.int(len(v))
	for _, x := range v {
		h.f64(x)
	}
}

func sortedKeys(dst []string, m map[string]float64) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// fnv64a is a running FNV-64a hash, kept by hand so that the digest
// needs no buffer and no hash.Hash.Write, whose always-nil error would
// still have to be handled.
type fnv64a uint64

func (h *fnv64a) byte(b byte) { *h = (*h ^ fnv64a(b)) * 1099511628211 }

func (h *fnv64a) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		h.byte(byte(v >> i))
	}
}

// int hashes v as a uvarint: one byte for the small counts and lengths
// that make up most of a deck, and still prefix-free.
func (h *fnv64a) int(v int) {
	var buf [binary.MaxVarintLen64]byte
	for _, b := range binary.AppendUvarint(buf[:0], uint64(v)) {
		h.byte(b)
	}
}

func (h *fnv64a) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *fnv64a) edge(e Edge)   { h.str(e.Dir); h.int(e.N) }

func (h *fnv64a) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// byteHasher appends the walk's byte stream, for a hash that takes
// its input whole.
type byteHasher []byte

func (b *byteHasher) int(v int)     { *b = binary.AppendUvarint(*b, uint64(v)) }
func (b *byteHasher) str(s string)  { b.int(len(s)); *b = append(*b, s...) }
func (b *byteHasher) f64(v float64) { *b = binary.LittleEndian.AppendUint64(*b, math.Float64bits(v)) }
