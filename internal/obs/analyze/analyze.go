// Package analyze turns exported obs traces into decisions: span
// trees with self/cumulative time, critical paths, hotspot rankings,
// diffs between two runs with per-span and per-counter deltas, and
// threshold-based regression verdicts. It is the engine behind the
// `primopt tracecmp` and `primopt report` subcommands, and perfbench
// builds its per-layer metrics on its trees.
//
// Self time is computed as a span's duration minus the wall-clock
// union of its children's intervals (clipped to the span's own
// window), so concurrently executing children — the flow fans
// primitive optimization and placement replicas out across
// goroutines — are not double-subtracted the way a naive child-sum
// would.
package analyze

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"primopt/internal/obs"
)

// Node is one span in a reconstructed trace tree.
type Node struct {
	obs.SpanRecord
	Children []*Node
	// SelfUS is DurUS minus the union of the children's intervals
	// clipped to this span's window — never negative.
	SelfUS int64
}

// EndUS returns the span's end time relative to trace start.
func (n *Node) EndUS() int64 { return n.StartUS + n.DurUS }

// Tree is a trace's span forest with an ID index.
type Tree struct {
	Roots []*Node
	byID  map[int64]*Node
}

// Node returns the span with the given ID, or nil.
func (t *Tree) Node(id int64) *Node { return t.byID[id] }

// BuildTree reconstructs the span forest of a parsed trace. Spans
// whose parent is unknown are lifted to roots (checktrace flags them
// separately as structural problems). Self times are computed for
// every node.
func BuildTree(d *obs.Dump) *Tree {
	t := &Tree{byID: make(map[int64]*Node, len(d.Spans))}
	for i := range d.Spans {
		n := &Node{SpanRecord: d.Spans[i]}
		t.byID[n.ID] = n
	}
	// Attach in export order so children keep their start order.
	for i := range d.Spans {
		n := t.byID[d.Spans[i].ID]
		if p := t.byID[n.Parent]; n.Parent != 0 && p != nil {
			p.Children = append(p.Children, n)
		} else {
			t.Roots = append(t.Roots, n)
		}
	}
	for _, r := range t.Roots {
		computeSelf(r)
	}
	return t
}

// computeSelf fills SelfUS bottom-up: duration minus the merged
// wall-clock coverage of the children, clipped to the node's window.
func computeSelf(n *Node) {
	for _, c := range n.Children {
		computeSelf(c)
	}
	n.SelfUS = n.DurUS - childCoverageUS(n, true)
	if n.SelfUS < 0 {
		n.SelfUS = 0
	}
}

// childCoverageUS returns the length of the union of n's children's
// intervals. With clip, intervals are clipped to n's own window
// (self-time accounting); without, the raw union is returned
// (structural validation).
func childCoverageUS(n *Node, clip bool) int64 {
	if len(n.Children) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		lo, hi := c.StartUS, c.EndUS()
		if clip {
			if lo < n.StartUS {
				lo = n.StartUS
			}
			if hi > n.EndUS() {
				hi = n.EndUS()
			}
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	var total, curLo, curHi int64
	first := true
	for _, v := range ivs {
		switch {
		case first:
			curLo, curHi, first = v.lo, v.hi, false
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if !first {
		total += curHi - curLo
	}
	return total
}

// SelfTimeViolations reports spans whose children, merged as
// wall-clock intervals, cover more than the span's own duration
// beyond the tolerance — "negative self-time". A plain child-duration
// sum would misfire on concurrent children (flow.prim goroutines,
// placement replicas run in parallel under one parent), so the union
// is used: children that genuinely fit inside their parent's window
// can never trip this, no matter how many run at once. The tolerance
// absorbs the ≤1µs-per-span truncation of the microsecond wire
// format. Returned strings are ready-to-print problem descriptions.
func SelfTimeViolations(t *Tree, tolUS int64) []string {
	var problems []string
	var walk func(n *Node)
	walk = func(n *Node) {
		cover := childCoverageUS(n, false)
		if cover > n.DurUS+tolUS {
			problems = append(problems, fmt.Sprintf(
				"span %q (id %d) has negative self-time: children cover %dµs > own duration %dµs",
				n.Name, n.ID, cover, n.DurUS))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return problems
}

// SpanStat aggregates every span sharing one name.
type SpanStat struct {
	Name    string
	Count   int64
	TotalUS int64 // summed durations (nested same-name spans both count)
	SelfUS  int64
	MaxUS   int64
}

// Aggregate folds the tree into per-name statistics, sorted by name
// for deterministic output; callers re-rank as needed.
func (t *Tree) Aggregate() []SpanStat {
	acc := map[string]*SpanStat{}
	var walk func(n *Node)
	walk = func(n *Node) {
		st := acc[n.Name]
		if st == nil {
			st = &SpanStat{Name: n.Name}
			acc[n.Name] = st
		}
		st.Count++
		st.TotalUS += n.DurUS
		st.SelfUS += n.SelfUS
		if n.DurUS > st.MaxUS {
			st.MaxUS = n.DurUS
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	names := make([]string, 0, len(acc))
	for name := range acc {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpanStat, 0, len(names))
	for _, name := range names {
		out = append(out, *acc[name])
	}
	return out
}

// PathStep is one hop of a critical path.
type PathStep struct {
	Name   string
	DurUS  int64
	SelfUS int64
	Depth  int
}

// CriticalPath walks from root to a leaf, at each level descending
// into the longest-duration child (earliest start breaks ties) — the
// chain of spans that bounds the run's wall clock. Shrinking any span
// off this path cannot speed the run up until the path changes.
func CriticalPath(root *Node) []PathStep {
	var path []PathStep
	n := root
	depth := 0
	for n != nil {
		path = append(path, PathStep{Name: n.Name, DurUS: n.DurUS, SelfUS: n.SelfUS, Depth: depth})
		var next *Node
		for _, c := range n.Children {
			if next == nil || c.DurUS > next.DurUS {
				next = c
			}
		}
		n = next
		depth++
	}
	return path
}

// LongestRoot returns the tree's longest-duration root span (nil for
// an empty tree) — the natural starting point for a critical path.
func (t *Tree) LongestRoot() *Node {
	var best *Node
	for _, r := range t.Roots {
		if best == nil || r.DurUS > best.DurUS {
			best = r
		}
	}
	return best
}

// ParsePercent parses a regression threshold given as "20%", "0.2",
// or "1.5" (the latter two as plain fractions). A threshold must be
// finite and non-negative: NaN compares false against every slowdown
// and Inf tolerates any, so neither could fail a run, and a negative
// one fails identical runs.
func ParsePercent(s string) (float64, error) {
	s = strings.TrimSpace(s)
	num, scale := s, 1.0
	if t, ok := strings.CutSuffix(s, "%"); ok {
		num, scale = strings.TrimSpace(t), 100
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("analyze: bad threshold %q (want e.g. \"20%%\" or \"0.2\"): %w", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("analyze: threshold %q must be finite and non-negative", s)
	}
	return v / scale, nil
}
