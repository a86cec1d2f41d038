package place

import (
	"context"
	"strings"
	"testing"

	"primopt/internal/fault"
	"primopt/internal/obs"
)

func faultCtx(t *testing.T, spec string) context.Context {
	t.Helper()
	inj, err := fault.New(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	return fault.With(context.Background(), inj)
}

// TestPlaceReplicaFailureSurvives: with one of three replicas killed
// by an injected error, the reduction picks among the survivors and
// the result matches the no-fault placement of some surviving seed.
func TestPlaceReplicaFailureSurvives(t *testing.T) {
	tr := obs.New()

	blocks := squareBlocks("a", "b", "c", "d", "e")
	ctx := obs.With(faultCtx(t, fault.SitePlaceReplica+":error@1"), tr)
	pl, err := PlaceCtx(ctx, blocks, nil, nil, Params{Seed: 1, Replicas: 3})
	if err != nil {
		t.Fatalf("placement died with 2 healthy replicas: %v", err)
	}
	for i, a := range blocks {
		for _, b := range blocks[i+1:] {
			if pl.Pos[a.Name].Intersects(pl.Pos[b.Name]) {
				t.Errorf("%s and %s overlap", a.Name, b.Name)
			}
		}
	}
	if n := tr.Counter("place.replica_failures").Value(); n != 1 {
		t.Errorf("place.replica_failures = %d, want 1", n)
	}
}

// TestPlaceReplicaPanicRecovered: a panicking replica is converted to
// a per-replica failure, not a process crash.
func TestPlaceReplicaPanicRecovered(t *testing.T) {
	tr := obs.New()

	blocks := squareBlocks("a", "b", "c")
	ctx := obs.With(faultCtx(t, fault.SitePlaceReplica+":panic@2"), tr)
	pl, err := PlaceCtx(ctx, blocks, nil, nil, Params{Seed: 1, Replicas: 2})
	if err != nil {
		t.Fatalf("placement died on a recovered replica panic: %v", err)
	}
	if pl == nil || len(pl.Pos) != 3 {
		t.Fatalf("placement incomplete: %+v", pl)
	}
	if n := tr.Counter("place.replica_panics").Value(); n != 1 {
		t.Errorf("place.replica_panics = %d, want 1", n)
	}
}

// TestPlaceAllReplicasFailed: every replica failing is a structured
// error naming the cause, never a hang or panic.
func TestPlaceAllReplicasFailed(t *testing.T) {
	blocks := squareBlocks("a", "b")
	ctx := faultCtx(t, fault.SitePlaceReplica+":error@1+")
	_, err := PlaceCtx(ctx, blocks, nil, nil, Params{Seed: 1, Replicas: 2})
	if err == nil {
		t.Fatal("placement succeeded with every replica failing")
	}
	if !strings.Contains(err.Error(), "replicas failed") || !fault.IsInjected(err) {
		t.Errorf("err = %v, want all-replicas-failed wrapping the injection", err)
	}
}

// TestPlaceCancellation: an already-canceled context aborts the
// anneal promptly with the context error.
func TestPlaceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blocks := squareBlocks("a", "b", "c", "d", "e")
	_, err := PlaceCtx(ctx, blocks, nil, nil, Params{Seed: 1})
	if err == nil {
		t.Fatal("placement succeeded under a dead context")
	}
	if ctx.Err() == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("err = %v, want context cancellation", err)
	}
}

// TestPlaceFaultDeterminism: the same (seed, spec) pair yields the
// same surviving placement.
func TestPlaceFaultDeterminism(t *testing.T) {
	blocks := squareBlocks("a", "b", "c", "d")
	run := func() *Placement {
		ctx := faultCtx(t, fault.SitePlaceReplica+":error@2")
		pl, err := PlaceCtx(ctx, blocks, nil, nil, Params{Seed: 7, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := run(), run()
	for name, ra := range a.Pos {
		if rb := b.Pos[name]; ra != rb {
			t.Errorf("%s: %v vs %v across identical fault-armed runs", name, ra, rb)
		}
	}
}
