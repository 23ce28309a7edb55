package mem

import (
	"testing"
)

func TestPlacementNames(t *testing.T) {
	seen := make(map[string]Placement)
	for _, p := range Placements() {
		if !p.Valid() {
			t.Fatalf("%v not valid", p)
		}
		name := p.String()
		if prev, dup := seen[name]; dup || name == "" {
			t.Fatalf("placement %d named %q (also %d)", uint8(p), name, uint8(prev))
		}
		seen[name] = p
	}
	if Placement(200).Valid() {
		t.Fatal("out-of-range placement reported valid")
	}
	if Placement(200).String() != "placement(200)" {
		t.Fatalf("unexpected String: %q", Placement(200).String())
	}
}

func TestNewWithLayoutUnknownPanics(t *testing.T) {
	mustPanic(t, "unknown placement", func() {
		NewWithLayout(64, Layout{Placement: Placement(9)})
	})
	mustPanic(t, "unknown placement", func() {
		New(64).SetPlacement(Placement(9))
	})
}

// TestGoldenLayout pins the exact address every policy assigns to a fixed
// allocation sequence. Any change here is a layout change: it silently
// shifts every figure that allocates, so it must be deliberate.
func TestGoldenLayout(t *testing.T) {
	// (owner, words) pairs chosen to exercise the no-straddle rule, a
	// full-line block, and two interleaved owners.
	seq := []struct{ owner, n int }{
		{0, 3}, {1, 3}, {0, 6}, {1, 2}, {0, 8}, {1, 1},
	}
	golden := map[Placement][]Addr{
		Packed:  {8, 11, 16, 22, 24, 32},
		Padded:  {8, 16, 24, 32, 40, 48},
		Colored: {8, 264, 520, 776, 1032, 1288},
		Arena:   {8, 264, 16, 267, 24, 269},
	}
	goldenLines := map[Placement]Addr{
		Packed: 40, Padded: 56, Colored: 1544, Arena: 520,
	}
	for _, p := range Placements() {
		m := NewWithLayout(64, Layout{Placement: p})
		for i, s := range seq {
			a := m.AllocOwned(s.owner, s.n)
			if a != golden[p][i] {
				t.Errorf("%v alloc %d: got %d, want %d", p, i, a, golden[p][i])
			}
		}
		if a := m.AllocLines(4); a != goldenLines[p] {
			t.Errorf("%v AllocLines: got %d, want %d", p, a, goldenLines[p])
		}
	}
}

// TestPackedLayoutMatchesNew: the zero Layout is byte-identical to the
// historical allocator — NewWithLayout(packed) and New make the same
// decisions, so every pre-placement figure is unchanged.
func TestPackedLayoutMatchesNew(t *testing.T) {
	a, b := New(64), NewWithLayout(64, Layout{})
	for i := 0; i < 100; i++ {
		n := i%11 + 1
		x, y := a.AllocOwned(i%4, n), b.AllocOwned(i%4, n)
		if x != y {
			t.Fatalf("alloc %d: packed layout %d diverges from New %d", i, y, x)
		}
	}
}

func TestPaddedExclusiveLines(t *testing.T) {
	m := NewWithLayout(64, Layout{Placement: Padded})
	lineOwner := map[int]int{}
	for i := 0; i < 40; i++ {
		n := i%10 + 1
		a := m.AllocOwned(i%4, n)
		if int(a)%LineWords != 0 {
			t.Fatalf("padded block %d not line aligned: %d", i, a)
		}
		for l := LineOf(a); l <= LineOf(a+Addr(n-1)); l++ {
			if prev, ok := lineOwner[l]; ok {
				t.Fatalf("blocks %d and %d share line %d under padded", prev, i, l)
			}
			lineOwner[l] = i
		}
	}
}

func TestArenaOwnersNeverShareLines(t *testing.T) {
	m := NewWithLayout(64, Layout{Placement: Arena, ChunkLines: 4})
	lineOwner := map[int]int{}
	for i := 0; i < 200; i++ {
		owner := i % 3
		n := i%7 + 1
		a := m.AllocOwned(owner, n)
		for l := LineOf(a); l <= LineOf(a+Addr(n-1)); l++ {
			if prev, ok := lineOwner[l]; ok && prev != owner {
				t.Fatalf("owners %d and %d share line %d under arena", prev, owner, l)
			}
			lineOwner[l] = owner
		}
	}
}

func TestColoredRoundRobinChunks(t *testing.T) {
	m := NewWithLayout(64, Layout{Placement: Colored, Colors: 2, ChunkLines: 4})
	a0 := m.AllocOwned(0, 2) // color 0, first chunk
	a1 := m.AllocOwned(0, 2) // color 1, second chunk
	a2 := m.AllocOwned(0, 2) // color 0 again: packs after a0
	if LineOf(a0) == LineOf(a1) {
		t.Fatal("distinct colors landed on one line")
	}
	if a2 != a0+2 {
		t.Fatalf("same color did not pack: got %d, want %d", a2, a0+2)
	}
	// A block bigger than the chunk still fits: the chunk grows to hold it.
	big := m.AllocOwned(0, 6*LineWords)
	if int(big)%LineWords != 0 {
		t.Fatalf("oversized colored block unaligned: %d", big)
	}
}

// TestAutoPadDiversion: a PadLines plan diverts exactly the fresh
// allocations whose packed-baseline address lands on a planned line, gives
// them exclusive lines, and leaves every other allocation under packed
// rules tracked by the shadow cursor.
func TestAutoPadDiversion(t *testing.T) {
	sizes := []int{3, 3, 2, 5, 4, 4, 1, 7, 2}

	// Baseline run: record each block's packed address.
	base := New(64)
	baseAddr := make([]Addr, len(sizes))
	for i, n := range sizes {
		baseAddr[i] = base.Alloc(n)
	}

	// Plan: pad the line holding baseline blocks 1 and 2.
	planned := LineOf(baseAddr[1])
	if LineOf(baseAddr[2]) != planned {
		t.Fatalf("test setup: blocks 1,2 expected to share line, got %d,%d",
			LineOf(baseAddr[1]), LineOf(baseAddr[2]))
	}
	m := NewWithLayout(64, Layout{PadLines: map[int]bool{planned: true}})

	lineUse := map[int][]int{}
	for i, n := range sizes {
		a := m.Alloc(n)
		diverted := LineOf(baseAddr[i]) == planned
		if diverted && int(a)%LineWords != 0 {
			t.Fatalf("block %d should be diverted to a fresh line, got %d", i, a)
		}
		for l := LineOf(a); l <= LineOf(a+Addr(n-1)); l++ {
			lineUse[l] = append(lineUse[l], i)
		}
	}
	// Diverted blocks (1 and 2) sit alone on their lines.
	for l, blocks := range lineUse {
		shared := len(blocks) > 1
		for _, b := range blocks {
			if (b == 1 || b == 2) && shared {
				t.Fatalf("diverted block %d shares line %d with %v", b, l, blocks)
			}
		}
	}
	// Non-planned lines keep their packed co-residency: blocks 4 and 5
	// share a line in the baseline and must still share one here.
	if LineOf(baseAddr[4]) != LineOf(baseAddr[5]) {
		t.Fatalf("test setup: blocks 4,5 expected to share a baseline line")
	}
}

// TestSnapshotRestorePerPolicy proves fork ≡ continuation for every
// placement policy: a memory restored in place and a new memory restored
// from the snapshot make the same allocator decisions as each other when
// the post-snapshot history is replayed, including cursor and
// color-sequence state.
func TestSnapshotRestorePerPolicy(t *testing.T) {
	for _, p := range Placements() {
		l := Layout{Placement: p, Colors: 3, ChunkLines: 4,
			PadLines: map[int]bool{2: true}}
		m := NewWithLayout(64, l)

		var freed []Addr
		for i := 0; i < 30; i++ {
			a := m.AllocOwned(i%3, i%6+1)
			m.Write(a, uint64(i))
			if i%5 == 0 {
				freed = append(freed, a)
				m.Free(a, i%6+1)
			}
		}
		snap := m.Snapshot()

		replay := func(mm *Memory) []Addr {
			var got []Addr
			for i := 0; i < 30; i++ {
				a := mm.AllocOwned(i%2, i%7+1)
				mm.Write(a, uint64(i)*3)
				got = append(got, a)
			}
			got = append(got, mm.AllocLines(3))
			return got
		}

		cont := replay(m) // continuation on the original
		m.Restore(snap)
		rest := replay(m)              // after in-place restore
		fork := replay(restored(snap)) // on a forked image
		for i := range cont {
			if cont[i] != rest[i] || cont[i] != fork[i] {
				t.Fatalf("%v: replay addr %d diverges: cont %d, restored %d, fork %d",
					p, i, cont[i], rest[i], fork[i])
			}
		}
		_ = freed
	}
}

func TestSetPlacementBracket(t *testing.T) {
	m := NewWithLayout(64, Layout{Placement: Packed})
	prev := m.SetPlacement(Padded)
	if prev != Packed {
		t.Fatalf("SetPlacement returned %v, want packed", prev)
	}
	a := m.AllocOwned(0, 3)
	if int(a)%LineWords != 0 {
		t.Fatalf("bracketed alloc not padded: %d", a)
	}
	m.SetPlacement(prev)
	if m.Layout().Placement != Packed {
		t.Fatal("bracket did not restore packed")
	}
	b := m.AllocOwned(0, 3)
	c := m.AllocOwned(0, 3)
	if LineOf(b) != LineOf(c) {
		t.Fatal("post-bracket allocs no longer pack")
	}
}
