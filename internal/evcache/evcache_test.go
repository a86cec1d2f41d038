package evcache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"primopt/internal/cellgen"
	"primopt/internal/extract"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

var testTech = pdk.Default()

func testLayout() *cellgen.Layout {
	return &cellgen.Layout{
		Config: cellgen.Config{NFin: 12, NF: 20, M: 4, Dummies: 2, Pattern: cellgen.PatABBA},
		Wires: map[string]*cellgen.WireEst{
			"s":   {NWires: 1, Length: 100},
			"d_a": {NWires: 2, Length: 50},
		},
	}
}

func testEntry() *Entry {
	return &Entry{
		Layout: testLayout(),
		Eval:   &primlib.Eval{Values: map[string]float64{"gain": 10}, Sims: 3},
		Cost:   4.5,
	}
}

func TestKeySnapshot(t *testing.T) {
	sz := primlib.Sizing{TotalFins: 960, L: 14}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4, ITail: 100e-6, CLoad: 5e-15}
	lay := testLayout()
	dp := primlib.DiffPair
	base := Key(testTech, dp, sz, bias, lay, nil)

	if again := Key(testTech, dp, sz, bias, lay, nil); again != base {
		t.Errorf("key not stable: %q vs %q", base, again)
	}
	// Dummies are part of the snapshot even though Config.ID omits
	// them — a dummy-count change moves the LDE environment.
	moreDummies := testLayout()
	moreDummies.Config.Dummies = 4
	if Key(testTech, dp, sz, bias, moreDummies, nil) == base {
		t.Error("dummy count not in the key")
	}
	wires := testLayout()
	wires.Wires["s"].NWires = 3
	if Key(testTech, dp, sz, bias, wires, nil) == base {
		t.Error("wire count not in the key")
	}
	otherBias := bias
	otherBias.ITail = 50e-6
	if Key(testTech, dp, sz, otherBias, lay, nil) == base {
		t.Error("bias not in the key")
	}
	otherSz := sz
	otherSz.TotalFins = 480
	if Key(testTech, dp, otherSz, bias, lay, nil) == base {
		t.Error("sizing not in the key")
	}
	if Key(testTech, primlib.CurrentMirror, sz, bias, lay, nil) == base {
		t.Error("kind not in the key")
	}
	// Kinds of one family project the bias identically but carry
	// different metrics and weights, so only the kind keeps them apart.
	for _, twin := range []*primlib.Entry{primlib.SwitchedDiffPair, primlib.CrossCoupledPair} {
		if twin.Family != dp.Family {
			t.Fatalf("%s is not in family %q", twin.Kind, dp.Family)
		}
		if twin.TestbenchBias(bias) != dp.TestbenchBias(bias) {
			t.Fatalf("%s projects the bias differently from %s", twin.Kind, dp.Kind)
		}
		if Key(testTech, twin, sz, bias, lay, nil) == base {
			t.Errorf("%s shares a key with %s: kind not in the key", twin.Kind, dp.Kind)
		}
	}
	// The schematic key is distinct from every layout key.
	if sk := Key(testTech, dp, sz, bias, nil, nil); sk == base {
		t.Error("schematic key collides with layout key")
	}

	// The bias part holds only what the family's testbenches read.
	// Two RO-VCO stages differ only in their schematic-OP gate and
	// drain voltages, which the csinv testbenches never read: one key.
	inv := primlib.CSInverter
	invSz := primlib.Sizing{TotalFins: 16, L: 14}
	stage := primlib.Bias{Vdd: 0.8, VCM: 0.35967466467973946, VD: 0.4, CLoad: 6e-15, VCtrl: 0.6}
	invKey := Key(testTech, inv, invSz, stage, lay, nil)
	vcmTwin, vdTwin := stage, stage
	vcmTwin.VCM = 0.35967466467973963
	vdTwin.VD = 0.41
	for _, twin := range []primlib.Bias{vcmTwin, vdTwin} {
		if k := Key(testTech, inv, invSz, twin, lay, nil); k != invKey {
			t.Errorf("csinv stages differing in unread VCM/VD got two keys:\n%s\n%s", invKey, k)
		}
	}
	// Dropped fields print as 0; the text layout is unchanged.
	if want := "|vdd=0.8;vcm=0;vd=0;it=0;cl=6e-15;vctl=0.6;vcas=0|"; !strings.Contains(invKey, want) {
		t.Errorf("csinv key %q lacks bias section %q", invKey, want)
	}
	ctl := stage
	ctl.VCtrl = 0.5
	if Key(testTech, inv, invSz, ctl, lay, nil) == invKey {
		t.Error("csinv VCtrl not in the key")
	}
	// A field the family reads keys at full precision: a current
	// source's drain voltage one ulp apart is a different snapshot.
	cs := primlib.CurrentSource
	csBias := primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4}
	csVD := csBias
	csVD.VD = math.Nextafter(csBias.VD, 1)
	if Key(testTech, cs, sz, csVD, lay, nil) == Key(testTech, cs, sz, csBias, lay, nil) {
		t.Error("csource VD not in the key")
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New()
	tr := obs.New()
	const goroutines = 16
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for range [goroutines]struct{}{} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ent, err := c.DoCtx(obs.With(context.Background(), tr), "k", func() (*Entry, error) {
				computes.Add(1)
				return testEntry(), nil
			})
			if err != nil || ent == nil || ent.Cost != 4.5 {
				t.Errorf("Do: ent=%v err=%v", ent, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines || st.Misses != 1 {
		t.Errorf("stats = %+v, want %d hits + 1 miss", st, goroutines-1)
	}
	if hits := tr.Counter("evcache.hits").Value(); hits != goroutines-1 {
		t.Errorf("evcache.hits = %d, want %d", hits, goroutines-1)
	}
}

func TestDoDeepIsolation(t *testing.T) {
	c := New()
	if _, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) { return testEntry(), nil }); err != nil {
		t.Fatal(err)
	}
	got, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) {
		t.Fatal("hit path must not compute")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the handed-out copy must not reach the cache.
	got.Layout.Wires["s"].NWires = 99
	got.Eval.Values["gain"] = -1
	again, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) { return nil, errors.New("no") })
	if err != nil {
		t.Fatal(err)
	}
	if n := again.Layout.Wires["s"].NWires; n != 1 {
		t.Errorf("cached wire count corrupted to %d", n)
	}
	if v := again.Eval.Values["gain"]; v != 10 {
		t.Errorf("cached eval corrupted to %v", v)
	}
	if again.Layout == got.Layout || again.Eval == got.Eval {
		t.Error("cache handed out shared pointers")
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	if _, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("failed compute leaked into stats: %+v", st)
	}
	ent, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) { return testEntry(), nil })
	if err != nil || ent.Cost != 4.5 {
		t.Fatalf("recompute after error: ent=%v err=%v", ent, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats after recovery = %+v", st)
	}
}

func TestMarkRequested(t *testing.T) {
	c := New()
	if c.MarkRequested("a") {
		t.Error("first request reported as duplicate")
	}
	if !c.MarkRequested("a") {
		t.Error("second request not reported as duplicate")
	}
	if c.MarkRequested("b") {
		t.Error("unrelated key reported as duplicate")
	}
}

func TestNilCacheStats(t *testing.T) {
	var c *Cache
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

func TestEntryCloneSchematic(t *testing.T) {
	// Schematic entries carry only an Eval; clone must not invent
	// layout state, and must still deep-copy.
	e := &Entry{Eval: &primlib.Eval{Values: map[string]float64{"gm": 1}, Sims: 2}}
	cl := e.clone()
	if cl.Layout != nil || cl.Ex != nil {
		t.Error("schematic clone grew layout state")
	}
	cl.Eval.Values["gm"] = 7
	if e.Eval.Values["gm"] != 1 {
		t.Error("schematic clone shares the eval map")
	}
}

// TestMissesCountDistinctSnapshots pins the accounting behind the
// csamp bench anomaly (18 hits / 114 misses with the cache on): a
// tuning-style sweep over wire counts produces one miss per distinct
// snapshot and zero spurious misses — every repeat of an
// already-computed snapshot is a hit. A low hit ratio therefore means
// the optimizer genuinely visited that many distinct snapshots (the
// csamp case: two unrelated primitive instances, nothing to share),
// not that the key is unstable.
func TestMissesCountDistinctSnapshots(t *testing.T) {
	c := New()
	sz := primlib.Sizing{TotalFins: 960, L: 14}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45}

	const maxW = 6
	var computes int
	sweep := func() {
		lay := testLayout()
		for n := 1; n <= maxW; n++ {
			lay.Wires["d_a"].NWires = n
			key := Key(testTech, primlib.CSAmp, sz, bias, lay, nil)
			if _, err := c.DoCtx(context.Background(), key, func() (*Entry, error) {
				computes++
				return testEntry(), nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// First sweep: every wire count is a new snapshot — all misses.
	sweep()
	st := c.Stats()
	if st.Misses != maxW || st.Hits != 0 {
		t.Fatalf("first sweep stats = %+v, want %d misses / 0 hits", st, maxW)
	}
	// Re-sweeping the identical snapshots computes nothing: the keys
	// are deterministic, so every request is a hit.
	sweep()
	st = c.Stats()
	if st.Misses != maxW || st.Hits != maxW {
		t.Errorf("re-sweep stats = %+v, want %d misses / %d hits", st, maxW, maxW)
	}
	if computes != maxW {
		t.Errorf("computed %d entries, want %d (one per distinct snapshot)", computes, maxW)
	}
	if st.Hits+st.Misses != 2*maxW {
		t.Errorf("hits+misses = %d, want %d (every request accounted once)", st.Hits+st.Misses, 2*maxW)
	}

	// A second instance of a different kind shares nothing even at
	// identical sizing/bias/layout — the csamp situation, where the
	// "csamp" and "csource_p" instances can never serve each other.
	lay := testLayout()
	if Key(testTech, primlib.CSAmp, sz, bias, lay, nil) == Key(testTech, primlib.CurrentSourceP, sz, bias, lay, nil) {
		t.Error("distinct primitive kinds share a key")
	}
	// Nor does a kind of the same family, whose projected bias is
	// identical: common-source and common-gate amplifiers weigh
	// different metrics.
	if Key(testTech, primlib.CSAmp, sz, bias, lay, nil) == Key(testTech, primlib.CGAmp, sz, bias, lay, nil) {
		t.Error("same-family kinds csamp and cgamp share a key")
	}
}

// TestKeyPDKFingerprint is the regression test for the headline
// bugfix: before v2 the key omitted the PDK entirely, so two
// technology variants of the same sizing/layout collided — latent
// in-process (one PDK per run), wrong-layout-serving the moment
// entries outlive a process. Two PDK variants must get distinct
// keys; identical content must key identically across distinct Tech
// values (content addressing, not pointer addressing).
func TestKeyPDKFingerprint(t *testing.T) {
	sz := primlib.Sizing{TotalFins: 960, L: 14}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45}
	lay := testLayout()

	base := Key(pdk.Default(), primlib.DiffPair, sz, bias, lay, nil)

	// A second Tech value with identical parameters: same key.
	twin := pdk.Default()
	if Key(twin, primlib.DiffPair, sz, bias, lay, nil) != base {
		t.Error("identical PDK content produced different keys (pointer-addressed, not content-addressed)")
	}

	// The old collision: a variant PDK (retargeted mobility) with the
	// same sizing and layout must NOT share a key.
	variant := pdk.Default()
	variant.U0N *= 1.1
	if Key(variant, primlib.DiffPair, sz, bias, lay, nil) == base {
		t.Error("PDK variant shares a key with the base PDK — wrong-PDK entries would be served")
	}
	// Structural variants too (an extra metal layer).
	taller := pdk.Default()
	taller.Metals = append(taller.Metals, taller.Metals[len(taller.Metals)-1])
	if Key(taller, primlib.DiffPair, sz, bias, lay, nil) == base {
		t.Error("metal-stack variant shares a key with the base PDK")
	}

	// Keys declare their schema generation.
	if !strings.HasPrefix(base, fmt.Sprintf("v%d|pdk=", SchemaVersion)) {
		t.Errorf("key %q does not open with schema version and PDK fingerprint", base)
	}
}

// TestKeyRoutes pins the external-route section: the same layout
// evaluated under different port-route overrides is a different
// snapshot, and route order never matters.
func TestKeyRoutes(t *testing.T) {
	sz := primlib.Sizing{TotalFins: 960, L: 14}
	bias := primlib.Bias{Vdd: 0.8, VCM: 0.45}
	lay := testLayout()

	bare := Key(testTech, primlib.DiffPair, sz, bias, lay, nil)
	r1 := map[string]extract.Route{
		"out": {Layer: 2, Length: 500, NWires: 1, PinLayer: 1, Vias: 2},
		"in":  {Layer: 1, Length: 300, NWires: 2, PinLayer: 1, Vias: 1},
	}
	routed := Key(testTech, primlib.DiffPair, sz, bias, lay, r1)
	if routed == bare {
		t.Error("route overrides not in the key")
	}
	// Map iteration order cannot leak into the key.
	r2 := map[string]extract.Route{
		"in":  {Layer: 1, Length: 300, NWires: 2, PinLayer: 1, Vias: 1},
		"out": {Layer: 2, Length: 500, NWires: 1, PinLayer: 1, Vias: 2},
	}
	if Key(testTech, primlib.DiffPair, sz, bias, lay, r2) != routed {
		t.Error("route key depends on map iteration order")
	}
	wider := map[string]extract.Route{
		"out": {Layer: 2, Length: 500, NWires: 4, PinLayer: 1, Vias: 2},
		"in":  r1["in"],
	}
	if Key(testTech, primlib.DiffPair, sz, bias, lay, wider) == routed {
		t.Error("route wire count not in the key")
	}
}

// TestApproxBytesAliasing pins the accounting bugfix: an entry whose
// Layout aliases Ex.Layout (the stored-entry invariant) charges that
// layout exactly once, and an entry whose extraction carries a
// distinct layout charges both — the old code never counted
// Ex.Layout at all, so the two cases wrongly measured identical.
func TestApproxBytesAliasing(t *testing.T) {
	lay := testLayout()
	aliased := &Entry{Layout: lay, Ex: &extract.Extracted{Layout: lay}}
	distinct := &Entry{Layout: testLayout(), Ex: &extract.Extracted{Layout: testLayout()}}
	onlyEntry := &Entry{Layout: testLayout(), Ex: &extract.Extracted{}}

	a, d, o := aliased.approxBytes(), distinct.approxBytes(), onlyEntry.approxBytes()
	if d <= a {
		t.Errorf("distinct layouts (%d bytes) must cost more than aliased (%d bytes)", d, a)
	}
	if want := a + layoutBytes(lay); d != want {
		t.Errorf("distinct = %d, want aliased + one layout = %d", d, want)
	}
	if o != a {
		t.Errorf("nil Ex.Layout (%d bytes) must match aliased accounting (%d bytes)", o, a)
	}
	// The clone invariant keeps stored entries on the cheap path:
	// clone() re-aliases, so a cloned entry costs what the original
	// aliased entry costs.
	ent := testEntry()
	ent.Ex = &extract.Extracted{Layout: ent.Layout}
	if cb := ent.clone().approxBytes(); cb != ent.approxBytes() {
		t.Errorf("clone changed accounting: %d vs %d", cb, ent.approxBytes())
	}
}
