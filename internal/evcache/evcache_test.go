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
	"time"

	"primopt/internal/cellgen"
	"primopt/internal/cost"
	"primopt/internal/extract"
	"primopt/internal/obs"
	"primopt/internal/pdk"
	"primopt/internal/primlib"
)

// testFP is the fingerprint of the default PDK, the tests' Tech.
var testFP = pdk.Default().Fingerprint()

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
	base := Key(testFP, dp, sz, bias, lay, nil)

	if again := Key(testFP, dp, sz, bias, lay, nil); again != base {
		t.Errorf("key not stable: %q vs %q", base, again)
	}
	// Dummies are part of the snapshot even though Config.ID omits
	// them — a dummy-count change moves the LDE environment.
	moreDummies := testLayout()
	moreDummies.Config.Dummies = 4
	if Key(testFP, dp, sz, bias, moreDummies, nil) == base {
		t.Error("dummy count not in the key")
	}
	wires := testLayout()
	wires.Wires["s"].NWires = 3
	if Key(testFP, dp, sz, bias, wires, nil) == base {
		t.Error("wire count not in the key")
	}
	otherBias := bias
	otherBias.ITail = 50e-6
	if Key(testFP, dp, sz, otherBias, lay, nil) == base {
		t.Error("bias not in the key")
	}
	otherSz := sz
	otherSz.TotalFins = 480
	if Key(testFP, dp, otherSz, bias, lay, nil) == base {
		t.Error("sizing not in the key")
	}
	if Key(testFP, primlib.CurrentMirror, sz, bias, lay, nil) == base {
		t.Error("kind not in the key")
	}
	// Kinds of one family project the bias identically but carry
	// different metrics and weights, so only the kind keeps them apart.
	for _, twin := range []*primlib.Entry{primlib.SwitchedDiffPair, primlib.CrossCoupledPair} {
		if twin.Family != dp.Family {
			t.Fatalf("%s is not in family %q", twin.Kind, dp.Family.Name)
		}
		if twin.TestbenchBias(bias) != dp.TestbenchBias(bias) {
			t.Fatalf("%s projects the bias differently from %s", twin.Kind, dp.Kind)
		}
		if Key(testFP, twin, sz, bias, lay, nil) == base {
			t.Errorf("%s shares a key with %s: kind not in the key", twin.Kind, dp.Kind)
		}
	}
	// The schematic key is distinct from every layout key.
	if sk := Key(testFP, dp, sz, bias, nil, nil); sk == base {
		t.Error("schematic key collides with layout key")
	}

	// The bias part holds only what the family's testbenches read.
	// Two RO-VCO stages differ only in their schematic-OP gate and
	// drain voltages, which the csinv testbenches never read: one key.
	inv := primlib.CSInverter
	invSz := primlib.Sizing{TotalFins: 16, L: 14}
	stage := primlib.Bias{Vdd: 0.8, VCM: 0.35967466467973946, VD: 0.4, CLoad: 6e-15, VCtrl: 0.6}
	invKey := Key(testFP, inv, invSz, stage, lay, nil)
	vcmTwin, vdTwin := stage, stage
	vcmTwin.VCM = 0.35967466467973963
	vdTwin.VD = 0.41
	for _, twin := range []primlib.Bias{vcmTwin, vdTwin} {
		if k := Key(testFP, inv, invSz, twin, lay, nil); k != invKey {
			t.Errorf("csinv stages differing in unread VCM/VD got two keys:\n%s\n%s", invKey, k)
		}
	}
	// Dropped fields print as 0; the text layout is unchanged.
	if want := "|vdd=0.8;vcm=0;vd=0;it=0;cl=6e-15;vctl=0.6;vcas=0|"; !strings.Contains(invKey, want) {
		t.Errorf("csinv key %q lacks bias section %q", invKey, want)
	}
	ctl := stage
	ctl.VCtrl = 0.5
	if Key(testFP, inv, invSz, ctl, lay, nil) == invKey {
		t.Error("csinv VCtrl not in the key")
	}
	// A field the family reads keys at full precision: a current
	// source's drain voltage one ulp apart is a different snapshot.
	cs := primlib.CurrentSource
	csBias := primlib.Bias{Vdd: 0.8, VCM: 0.45, VD: 0.4}
	csVD := csBias
	csVD.VD = math.Nextafter(csBias.VD, 1)
	if Key(testFP, cs, sz, csVD, lay, nil) == Key(testFP, cs, sz, csBias, lay, nil) {
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

// TestDoSharesStoredEntry pins the store and serve contract: the
// cache stores the entry compute returned, and the computing caller,
// every hit and every waiter of an in-flight computation share that
// one pointer; nothing the callers do changes what was stored.
func TestDoSharesStoredEntry(t *testing.T) {
	log := TrackStores(t)
	c := New()
	ctx := context.Background()
	mine := testEntry()
	got, err := c.DoCtx(ctx, "k", func() (*Entry, error) { return mine, nil })
	if err != nil {
		t.Fatal(err)
	}
	if stored := c.Stored("k"); got != mine || stored != mine {
		t.Fatalf("miss: caller got %p, cache stored %p; want both to be the computed entry %p", got, stored, mine)
	}
	hit, err := c.DoCtx(ctx, "k", func() (*Entry, error) {
		t.Error("hit path must not compute")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit != mine {
		t.Errorf("hit returned %p, want the stored entry %p", hit, mine)
	}

	// The computing caller and the waiters of an in-flight computation
	// share the stored entry too.
	entered, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var computed *Entry
	go func() {
		defer wg.Done()
		computed, _ = c.DoCtx(ctx, "w", func() (*Entry, error) {
			close(entered)
			<-release
			return testEntry(), nil
		})
	}()
	<-entered
	const waiters = 4
	var waited [waiters]*Entry
	for i := range waited {
		wg.Add(1)
		go func() {
			defer wg.Done()
			waited[i], _ = c.DoCtx(ctx, "w", func() (*Entry, error) {
				t.Error("a waiter computed")
				return nil, nil
			})
		}()
	}
	// Give the waiters time to park on the in-flight channel.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	sw := c.Stored("w")
	if sw == nil || computed != sw {
		t.Fatalf("in-flight: computing caller got %p, stored %p; want one shared entry", computed, sw)
	}
	for i, w := range waited {
		if w != sw {
			t.Errorf("waiter %d got %p, want the stored entry %p", i, w, sw)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1+waiters {
		t.Errorf("stats = %+v, want 2 misses and %d hits", st, 1+waiters)
	}
	if n := log.Len(c); n != 2 {
		t.Errorf("%d stores recorded, want 2", n)
	}
	for _, d := range log.Changed() {
		t.Error(d)
	}
}

// TestStoreLogSeesWrites: the digest the immutability tests rely on
// notices a write anywhere in an entry, however deep.
func TestStoreLogSeesWrites(t *testing.T) {
	writes := map[string]func(e *Entry){
		"wire count":    func(e *Entry) { e.Layout.Wires["s"].NWires++ },
		"new wire":      func(e *Entry) { e.Layout.Wires["g"] = &cellgen.WireEst{NWires: 1} },
		"config":        func(e *Entry) { e.Layout.Config.M++ },
		"extracted RC":  func(e *Entry) { e.Ex.Term["s"] = extract.TermRC{R: 2} },
		"device":        func(e *Entry) { e.Ex.Dev[0].DVth = 1e-3 },
		"eval value":    func(e *Entry) { e.Eval.Values["gain"] = math.Copysign(0, -1) },
		"sims":          func(e *Entry) { e.Eval.Sims++ },
		"cost":          func(e *Entry) { e.Cost = math.Nextafter(e.Cost, 5) },
		"cost value":    func(e *Entry) { e.Values[0].Delta = 0.5 },
		"value dropped": func(e *Entry) { e.Values = e.Values[:0] },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			log := TrackStores(t)
			c := New()
			if _, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) {
				e := testEntry()
				e.Ex = &extract.Extracted{Layout: e.Layout, Dev: make([]extract.DevParasitics, 1),
					Term: map[string]extract.TermRC{"s": {R: 1}}}
				e.Values = []cost.Value{{Delta: 0.25}}
				return e, nil
			}); err != nil {
				t.Fatal(err)
			}
			if d := log.Changed(); len(d) != 0 {
				t.Fatalf("changed before any write: %v", d)
			}
			write(c.Stored("k"))
			if d := log.Changed(); len(d) != 1 {
				t.Errorf("after the write: %v, want one change", d)
			}
		})
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

// TestMissesCountDistinctSnapshots pins the accounting behind the
// csamp bench anomaly (18 hits / 114 misses): a tuning-style sweep
// over wire counts produces one miss per distinct
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
			key := Key(testFP, primlib.CSAmp, sz, bias, lay, nil)
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
	if Key(testFP, primlib.CSAmp, sz, bias, lay, nil) == Key(testFP, primlib.CurrentSourceP, sz, bias, lay, nil) {
		t.Error("distinct primitive kinds share a key")
	}
	// Nor does a kind of the same family, whose projected bias is
	// identical: common-source and common-gate amplifiers weigh
	// different metrics.
	if Key(testFP, primlib.CSAmp, sz, bias, lay, nil) == Key(testFP, primlib.CGAmp, sz, bias, lay, nil) {
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

	base := Key(pdk.Default().Fingerprint(), primlib.DiffPair, sz, bias, lay, nil)

	// A second Tech value with identical parameters: same key.
	twin := pdk.Default()
	if Key(twin.Fingerprint(), primlib.DiffPair, sz, bias, lay, nil) != base {
		t.Error("identical PDK content produced different keys (pointer-addressed, not content-addressed)")
	}

	// The old collision: a variant PDK (retargeted mobility) with the
	// same sizing and layout must NOT share a key.
	variant := pdk.Default()
	variant.U0N *= 1.1
	if Key(variant.Fingerprint(), primlib.DiffPair, sz, bias, lay, nil) == base {
		t.Error("PDK variant shares a key with the base PDK — wrong-PDK entries would be served")
	}
	// Structural variants too (an extra metal layer).
	taller := pdk.Default()
	taller.Metals = append(taller.Metals, taller.Metals[len(taller.Metals)-1])
	if Key(taller.Fingerprint(), primlib.DiffPair, sz, bias, lay, nil) == base {
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

	bare := Key(testFP, primlib.DiffPair, sz, bias, lay, nil)
	r1 := map[string]extract.Route{
		"out": {Layer: 2, Length: 500, NWires: 1, PinLayer: 1, Vias: 2},
		"in":  {Layer: 1, Length: 300, NWires: 2, PinLayer: 1, Vias: 1},
	}
	routed := Key(testFP, primlib.DiffPair, sz, bias, lay, r1)
	if routed == bare {
		t.Error("route overrides not in the key")
	}
	// Map iteration order cannot leak into the key.
	r2 := map[string]extract.Route{
		"in":  {Layer: 1, Length: 300, NWires: 2, PinLayer: 1, Vias: 1},
		"out": {Layer: 2, Length: 500, NWires: 1, PinLayer: 1, Vias: 2},
	}
	if Key(testFP, primlib.DiffPair, sz, bias, lay, r2) != routed {
		t.Error("route key depends on map iteration order")
	}
	wider := map[string]extract.Route{
		"out": {Layer: 2, Length: 500, NWires: 4, PinLayer: 1, Vias: 2},
		"in":  r1["in"],
	}
	if Key(testFP, primlib.DiffPair, sz, bias, lay, wider) == routed {
		t.Error("route wire count not in the key")
	}
}

// TestApproxBytesAliasing pins the accounting bugfix: an entry whose
// Layout aliases Ex.Layout (as the optimizer's entries do) charges that
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
}
