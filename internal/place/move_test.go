package place

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// moveFixture is a small annealing problem with a symmetry pair and
// blocks of differing variant counts.
func moveFixture() ([]Block, []Net, []SymPair) {
	v := []Variant{{W: 1200, H: 800}, {W: 800, H: 1200}, {W: 1000, H: 1000}}
	blocks := []Block{
		{Name: "a", Variants: v},
		{Name: "b", Variants: v},
		{Name: "c", Variants: v[:2]},
		{Name: "d", Variants: []Variant{{W: 900, H: 900}}},
		{Name: "e", Variants: v},
	}
	nets := []Net{
		{Name: "n1", Blocks: []string{"a", "b", "c"}},
		{Name: "n2", Blocks: []string{"c", "d", "e"}, Weight: 2},
	}
	return blocks, nets, []SymPair{{A: "a", B: "b"}}
}

// TestMoveUndoRestoresState applies each move kind and undoes it:
// Γ+, Γ- and both sequences must come back exactly, and so must every
// variant index, a symmetry pair's included. Moves of other kinds
// drawn on the way are undone and checked too. After every move, every
// undo, the restore and the clone, posP and posM must invert Γ+ and Γ-
// and the block sizes must follow the variants.
func TestMoveUndoRestoresState(t *testing.T) {
	blocks, nets, sym := moveFixture()
	st := newState(blocks, nets, sym)
	for i, b := range blocks {
		st.index[b.Name] = i
	}
	st.buildTopology()
	checkInStep(t, st, "buildTopology")
	// A scrambled start: relocation's Γ- positions differ from its Γ+
	// ones, and the pair's variants differ, so undo must restore each.
	st.restore(snapshot{
		gammaP: []int{3, 0, 4, 1, 2},
		gammaM: []int{1, 4, 2, 0, 3},
		varIx:  []int{1, 2, 0, 0, 1},
	})
	checkInStep(t, st, "restore")
	checkInStep(t, st.clone(), "clone")
	before := st.snapshot()
	same := func() bool {
		return slices.Equal(st.gammaP, before.gammaP) &&
			slices.Equal(st.gammaM, before.gammaM) &&
			slices.Equal(st.varIx, before.varIx)
	}

	cases := []struct {
		name string
		is   func(m move) bool
	}{
		{"swap Γ+", func(m move) bool { return m.kind == moveSwapP }},
		{"swap Γ-", func(m move) bool { return m.kind == moveSwapM }},
		{"relocate", func(m move) bool { return m.kind == moveRelocate }},
		{"variant", func(m move) bool { return m.kind == moveVariant && m.q < 0 }},
		{"sym-pair variant", func(m move) bool { return m.kind == moveVariant && m.q >= 0 }},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for tries := 0; tries < 1000; tries++ {
				m, changed := st.randomMove(rng, len(blocks))
				checkInStep(t, st, fmt.Sprintf("move %+v", m))
				hit := changed && tc.is(m)
				if hit {
					if same() {
						t.Fatalf("move %+v reported a change but left the state as it was", m)
					}
					if m.kind == moveVariant && m.q >= 0 && st.varIx[m.b] != st.varIx[m.q] {
						t.Errorf("pair variants not in lockstep: %d vs %d", st.varIx[m.b], st.varIx[m.q])
					}
				}
				st.undo(m)
				checkInStep(t, st, fmt.Sprintf("undo of %+v", m))
				if !same() {
					t.Fatalf("undo of %+v left Γ+ %v Γ- %v variants %v, want %v %v %v",
						m, st.gammaP, st.gammaM, st.varIx, before.gammaP, before.gammaM, before.varIx)
				}
				if hit {
					return
				}
			}
			t.Fatal("no such move drawn in 1000 tries")
		})
	}
}

// checkInStep fails t unless posP and posM are the inverses of Γ+ and
// Γ-, and w and h are the sizes of each block's current variant.
func checkInStep(t *testing.T, st *state, after string) {
	t.Helper()
	for _, seq := range []struct {
		name     string
		gam, pos []int
	}{{"Γ+", st.gammaP, st.posP}, {"Γ-", st.gammaM, st.posM}} {
		for i, b := range seq.gam {
			if seq.pos[b] != i {
				t.Fatalf("after %s: %s %v at position %d holds block %d, but its position table says %d (%v)",
					after, seq.name, seq.gam, i, b, seq.pos[b], seq.pos)
			}
		}
	}
	for b, v := range st.varIx {
		if want := st.blocks[b].Variants[v]; st.w[b] != want.W || st.h[b] != want.H {
			t.Fatalf("after %s: block %d on variant %d is sized %dx%d, want %dx%d",
				after, b, v, st.w[b], st.h[b], want.W, want.H)
		}
	}
}

// TestPlaceAllocsIndependentOfMoves: annealing allocates nothing per
// move. An eight-fold move budget must cost PlaceCtx exactly as many
// allocations as the small one: set-up, the replica's buffers and the
// result, and nothing that scales with the moves. Both budgets stay
// under 256 because the place.anneal span boxes iters_per_band into
// an interface, which allocates only from 256 up.
func TestPlaceAllocsIndependentOfMoves(t *testing.T) {
	blocks, nets, sym := moveFixture()
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := PlaceCtx(context.Background(), blocks, nets, sym, Params{Seed: 3, moves: iters}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(30), allocs(240)
	if small != large {
		t.Errorf("PlaceCtx allocations: %v at 30 moves per band, %v at 240", small, large)
	}
}
