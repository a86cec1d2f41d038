package evcache_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/optimize"
	"primopt/internal/pdk"
)

// TestStoredEntriesNeverChange is the end-to-end proof that cache
// entries are immutable once stored. Every circuit's optimized and
// manual flows run two at a time on one shared cache with a disk tier,
// with port optimization and verification on: a cold pass that
// computes every entry, a warm pass served from memory, and a pass on
// a fresh cache over the same directory, served from disk as a
// restarted daemon is. Their consumers (selection, tuning, schematic
// references, port optimization, placement, assembly, verification)
// all read shared entries. Every entry is digested as it is stored,
// and every digest must still match at the end; the warm and
// disk-warm results must equal the cold ones bit for bit.
func TestStoredEntriesNeverChange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every circuit's optimizing flows three times")
	}
	log := evcache.TrackStores(t)
	tech := pdk.Default()
	type job struct {
		circuit string
		mode    flow.Mode
	}
	var jobs []job
	bms := map[string]*circuits.Benchmark{}
	for _, name := range circuits.Names() {
		// The RO-VCO at four stages keeps the test short; its stages
		// still share one set of entries.
		bm, err := circuits.Build(tech, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		bms[name] = bm
		jobs = append(jobs, job{name, flow.Optimized}, job{name, flow.Manual})
	}
	runAll := func(pass string, c *evcache.Cache) map[job]string {
		out := map[job]string{}
		var mu sync.Mutex
		next := make(chan job)
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					p := flow.Params{Seed: 1}
					p.Optimize.Cache = c
					p.Verify.Mode = flow.VerifyWarn
					r, err := flow.RunContext(context.Background(), tech, bms[j.circuit], j.mode, p)
					if err != nil {
						t.Errorf("%s pass, %s %v: %v", pass, j.circuit, j.mode, err)
						continue
					}
					s := summary(r)
					mu.Lock()
					out[j] = s
					mu.Unlock()
				}
			}()
		}
		for _, j := range jobs {
			next <- j
		}
		close(next)
		wg.Wait()
		return out
	}
	same := func(pass string, want, got map[job]string) {
		for _, j := range jobs {
			if want[j] != got[j] {
				t.Errorf("%s %v: the %s result differs from the cold one:\n--- cold\n%s--- %s\n%s",
					j.circuit, j.mode, pass, want[j], pass, got[j])
			}
		}
	}

	dir := t.TempDir()
	d1, err := evcache.OpenDisk(dir, evcache.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shared := evcache.New()
	shared.AttachDisk(d1)
	cold := runAll("cold", shared)
	stored := log.Len(shared)
	if stored == 0 {
		t.Fatal("the cold pass stored nothing")
	}
	same("warm", cold, runAll("warm", shared))
	if n := log.Len(shared); n != stored {
		t.Errorf("the warm pass stored %d more entries, want none", n-stored)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := evcache.OpenDisk(dir, evcache.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	restarted := evcache.New()
	restarted.AttachDisk(d2)
	same("disk-warm", cold, runAll("disk-warm", restarted))
	if st := restarted.Stats(); st.DiskHits == 0 || st.DiskMisses != 0 {
		t.Errorf("disk-warm pass: %d disk hits, %d disk misses; want hits only", st.DiskHits, st.DiskMisses)
	}

	for _, d := range log.Changed() {
		t.Error(d)
	}
}

// summary renders everything a flow result decides, floats by their
// bits, in a fixed order.
func summary(r *flow.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sims %d\n", r.Sims)
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(&b, "metric %s %x\n", k, math.Float64bits(r.Metrics[k]))
	}
	for _, n := range sortedKeys(r.PrimResults) {
		pr := r.PrimResults[n]
		fmt.Fprintf(&b, "prim %s sims %d+%d\n", n, pr.SelectionSims, pr.TuningSims)
		for _, o := range pr.AllOptions {
			writeOption(&b, "option", o)
		}
		for _, o := range pr.Selected {
			writeOption(&b, "selected", o)
		}
	}
	pl := r.Placement
	for _, n := range sortedKeys(pl.Pos) {
		fmt.Fprintf(&b, "place %s %v variant %d\n", n, pl.Pos[n], pl.Variant[n])
	}
	fmt.Fprintf(&b, "bbox %v hpwl %d symerr %x\n", pl.BBox, pl.HPWL, math.Float64bits(pl.SymErr))
	for _, n := range sortedKeys(r.Routing.Nets) {
		nr := r.Routing.Nets[n]
		fmt.Fprintf(&b, "route %s len %d vias %d segs %d\n", n, nr.TotalLength(), nr.Vias, len(nr.Segments))
	}
	for _, n := range sortedKeys(r.NetWires) {
		fmt.Fprintf(&b, "wires %s %d\n", n, r.NetWires[n])
	}
	fmt.Fprintf(&b, "violations %d degraded %d\n", len(r.Verify.Violations), len(r.Degraded))
	return b.String()
}

func writeOption(b *strings.Builder, what string, o optimize.Option) {
	fmt.Fprintf(b, "  %s %s bin %d cost %x sims %d", what, o.Layout.Config.ID(), o.Bin, math.Float64bits(o.Cost), o.Eval.Sims)
	for _, w := range sortedKeys(o.Layout.Wires) {
		fmt.Fprintf(b, " %s=%d", w, o.Layout.Wires[w].NWires)
	}
	b.WriteString("\n")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
