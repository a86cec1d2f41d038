package flow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/place"
)

// placementsPath holds the placement digests TestPinnedPlacements
// compares against.
const placementsPath = "testdata/placements.json"

// TestPinnedPlacements pins the optimized placement of every benchmark
// circuit (the RO-VCO at 8 stages) at seeds 1–12, with one and with
// three annealing replicas: the seeds the benchmark workloads draw
// from, where TestPinnedRuns pins seed 1 only. Each entry is the
// SHA-256 of placementDigest: every block's rectangle and variant, the
// bounding box, the HPWL and the bits of SymErr. Only the layout runs
// (runLayout on one shared cache per circuit), not the post-layout
// evaluation.
//
// The comparison is exact. A change that moves a placement on purpose
// re-pins: the failure writes the regenerated file to a temporary path
// and names it, to be copied over placementsPath with a note saying
// why the placements moved.
func TestPinnedPlacements(t *testing.T) {
	got := map[string]string{}
	for _, name := range circuits.Names() {
		bm, err := circuits.Build(tech, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		cache := evcache.New()
		for seed := int64(1); seed <= 12; seed++ {
			for _, reps := range []int{1, 3} {
				res, _ := layoutOnly(t, bm, cache, seed, reps)
				sum := sha256.Sum256([]byte(placementDigest(res.Placement)))
				got[fmt.Sprintf("%s/seed=%d/replicas=%d", name, seed, reps)] = hex.EncodeToString(sum[:])
			}
		}
	}

	data, err := os.ReadFile(placementsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("%s: %v", placementsPath, err)
	}
	var diffs []string
	for _, key := range keysOf(pinned, got) {
		if p, g := pinned[key], got[key]; p != g {
			diffs = append(diffs, fmt.Sprintf("%s: pinned %q, got %q", key, p, g))
		}
	}
	if len(diffs) == 0 {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp("", "placements-*.json")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(append(out, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("%d differences from %s:\n%s\nregenerated file: %s",
		len(diffs), placementsPath, strings.Join(diffs, "\n"), f.Name())
}

// layoutOnly runs the layout portion of bm's optimized flow at seed
// with reps annealing replicas, on cache, and returns its result and
// per-instance choices.
func layoutOnly(t testing.TB, bm *circuits.Benchmark, cache *evcache.Cache, seed int64, reps int) (*Result, map[string]*chosen) {
	t.Helper()
	p := Params{Seed: seed, PlaceReplicas: reps}
	p.Optimize.Cache = cache
	ctx := p.bind(context.Background())
	res := &Result{Mode: Optimized, Benchmark: bm.Name}
	root, end := p.startRun(bm, Optimized.String(), res)
	defer end()
	choices, err := runLayout(ctx, tech, tech.Fingerprint(), bm, Optimized, p, res, root)
	if err != nil {
		t.Fatalf("%s seed %d replicas %d: %v", bm.Name, seed, reps, err)
	}
	return res, choices
}

// placementDigest renders everything a placement decides, one line per
// block in name order, then the bounding box, the HPWL and the bits of
// SymErr.
func placementDigest(pl *place.Placement) string {
	var b strings.Builder
	names := make([]string, 0, len(pl.Pos))
	for n := range pl.Pos {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %v variant=%d\n", n, pl.Pos[n], pl.Variant[n])
	}
	fmt.Fprintf(&b, "bbox %v hpwl %d symerr %#x\n", pl.BBox, pl.HPWL, math.Float64bits(pl.SymErr))
	return b.String()
}
