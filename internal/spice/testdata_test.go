package spice

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// Every shipped sample deck must parse and run cleanly — they double
// as user documentation for cmd/spicetool.
func TestShippedDecksRun(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.sp")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected sample decks in testdata/, found %d", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, deck, err := RunSourceCtx(context.Background(), tech, string(src))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(deck.Netlist.Devices) == 0 {
			t.Errorf("%s: empty netlist", f)
		}
		for name, v := range res.Measures {
			if v != v { // NaN
				t.Errorf("%s: measure %s is NaN", f, name)
			}
		}
	}
}
