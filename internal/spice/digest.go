package spice

import (
	"encoding/binary"
	"math"
	"slices"
)

// digest is the deck's duplicate identity: an FNV-64a hash of its
// content in a fixed order. That is the title; per device its type,
// name, nets, parameters by sorted key and waveform; then the
// analyses, the measures and the initial conditions by sorted net.
// Strings and lists are length-prefixed and floats enter as their
// bits, so two decks share a digest, up to hash collisions, exactly
// when every one of those fields is equal. The title counts because
// two testbenches of different metrics can otherwise hold the same
// circuit and statements.
func (d *Deck) digest() uint64 {
	h := fnv64a(14695981039346656037)
	h.str(d.Title)
	var keyBuf [16]string // a device has at most ten parameters
	keys := keyBuf[:0]
	h.int(len(d.Netlist.Devices))
	for _, dev := range d.Netlist.Devices {
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
			h.f64s(w.Args)
			h.f64s(w.Times)
			h.f64s(w.Vals)
		}
	}
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
	keys = sortedKeys(keys[:0], d.ICs)
	h.int(len(keys))
	for _, k := range keys {
		h.str(k)
		h.f64(d.ICs[k])
	}
	return uint64(h)
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

func (h *fnv64a) f64s(v []float64) {
	h.int(len(v))
	for _, x := range v {
		h.f64(x)
	}
}

func (h *fnv64a) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}
