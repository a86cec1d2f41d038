package evcache_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"primopt/internal/circuits"
	"primopt/internal/evcache"
	"primopt/internal/flow"
	"primopt/internal/pdk"
)

// pinnedEntriesPath holds the stores TestPinnedEntries compares
// against.
const pinnedEntriesPath = "testdata/pinned_entries.json"

// pinnedStores is what one (circuit, mode) run stores in its cache:
// the number of entries, and the SHA-256 of one "<key> <digest>" line
// per entry, sorted, where the key drops its "v<SchemaVersion>|"
// prefix and the digest is the entry's content digest (every field,
// floats by their bits).
type pinnedStores struct {
	Entries int    `json:"entries"`
	SHA256  string `json:"sha256"`
}

// TestPinnedEntries pins every entry the evaluation cache stores for
// each benchmark circuit in each mode at seed 1, on a fresh cache per
// run, the RO-VCO at four stages. TestPinnedRuns (internal/flow) pins
// what a run reports; this pins what it caches, which a later run
// with the same cache directory is served. A change that moves a
// cached evaluation moves its run's digest, even when no reported
// result moves; such a change must bump SchemaVersion, since a
// directory warmed before it would serve the old bits.
//
// The key drops its version prefix so that a version bump alone moves
// no pin. A change that moves entries on purpose re-pins: the failure
// writes the regenerated file to a temporary path and names it, to be
// copied over pinnedEntriesPath with a note saying which runs moved
// and why.
func TestPinnedEntries(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pins are amd64 result bits; on %s the compiler may fuse multiply-adds, which moves them", runtime.GOARCH)
	}
	log := evcache.TrackStores(t)
	tech := pdk.Default()
	got := map[string]pinnedStores{}
	for _, name := range circuits.Names() {
		bm, err := circuits.Build(tech, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []flow.Mode{flow.Schematic, flow.Conventional, flow.Optimized, flow.Manual} {
			c := evcache.New()
			p := flow.Params{Seed: 1}
			p.Optimize.Cache = c
			if _, err := flow.RunContext(context.Background(), tech, bm, mode, p); err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			got[name+"/"+mode.String()] = pinStores(log.Digests(c))
		}
	}

	data, err := os.ReadFile(pinnedEntriesPath)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]pinnedStores
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("%s: %v", pinnedEntriesPath, err)
	}
	runs := map[string]bool{}
	for k := range pinned {
		runs[k] = true
	}
	for k := range got {
		runs[k] = true
	}
	var diffs []string
	for _, run := range sortedKeys(runs) {
		p, pok := pinned[run]
		g, gok := got[run]
		switch {
		case !pok:
			diffs = append(diffs, run+": run, not pinned")
		case !gok:
			diffs = append(diffs, run+": pinned, not run")
		case p != g:
			diffs = append(diffs, fmt.Sprintf("%s: pinned %d entries %s, got %d entries %s",
				run, p.Entries, p.SHA256, g.Entries, g.SHA256))
		}
	}
	if len(diffs) == 0 {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp("", "pinned_entries-*.json")
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
		len(diffs), pinnedEntriesPath, strings.Join(diffs, "\n"), f.Name())
}

// pinStores digests one run's stores as pinnedStores describes.
func pinStores(digests map[string]uint64) pinnedStores {
	lines := make([]string, 0, len(digests))
	for key, sum := range digests {
		_, rest, _ := strings.Cut(key, "|")
		lines = append(lines, fmt.Sprintf("%s %016x\n", rest, sum))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return pinnedStores{Entries: len(digests), SHA256: hex.EncodeToString(h.Sum(nil))}
}
