package mem_test

import (
	"slices"
	"testing"

	"hle/internal/mem"
)

// FuzzSnapshotRestore drives a random allocate/write/free history against
// a Memory under a fuzz-chosen placement policy, snapshots it mid-stream,
// keeps mutating, and then checks the round trip: Restore must erase every
// post-snapshot effect, a memory that last held the end-of-history image
// must restore to the same arrays as a new one (and the other way round),
// and a new Memory restored from the snapshot must be
// behaviorally identical to the restored one — same words, same bump
// pointer, and same allocator decisions (including chunk cursors, color
// sequence, and the auto-pad shadow) when the rest of the history is
// replayed against both. `go test` runs the seed corpus;
// `go test -fuzz=FuzzSnapshotRestore ./internal/mem` explores.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{0, 4, 0x10, 0x53, 0x22, 0xb1, 0x07, 0xe0, 0x41, 0x9c})
	f.Add([]byte{1, 1, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{2, 0, 0xff})
	f.Add([]byte{3, 3, 0x40, 0x81, 0x12, 0x07})
	f.Add([]byte{4, 2, 0x10, 0x53, 0x22, 0xb1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		// The first byte picks the placement policy (one value past the
		// real policies selects packed with an auto-pad plan, so the
		// shadow-cursor path is fuzzed too).
		layout := mem.Layout{
			Placement:  mem.Placement(ops[0] % 5 % 4),
			Colors:     3,
			ChunkLines: 4,
		}
		if ops[0]%5 == 4 {
			layout.PadLines = map[int]bool{2: true, 5: true}
		}
		split := int(ops[1])
		ops = ops[2:]
		if split > len(ops) {
			split = len(ops)
		}

		type block struct {
			a     mem.Addr
			n     int
			lines bool
		}
		apply := func(m *mem.Memory, live []block, b byte, i int) []block {
			switch b % 4 {
			case 0:
				n := 1 + int(b>>4)
				a := m.AllocOwned(int(b>>2)%3, n)
				m.Write(a, uint64(i)+1)
				return append(live, block{a, n, false})
			case 1:
				n := 1 + int(b>>4)
				a := m.AllocLines(n)
				m.Write(a, uint64(i)+1)
				return append(live, block{a, n, true})
			case 2:
				if len(live) == 0 {
					return live
				}
				j := int(b>>2) % len(live)
				bl := live[j]
				if bl.lines {
					m.FreeLines(bl.a, bl.n)
				} else {
					m.Free(bl.a, bl.n)
				}
				return slices.Delete(live, j, j+1)
			default:
				if n := m.WordsInUse(); n > 0 {
					m.Write(mem.Addr(int(b>>2)*7%n), uint64(i)*0x9e3779b9)
				}
				return live
			}
		}

		m := mem.NewWithLayout(64, layout)
		var live []block
		for i, b := range ops[:split] {
			live = apply(m, live, b, i)
		}
		snap := m.Snapshot()
		liveAtSnap := slices.Clone(live)

		for i, b := range ops[split:] {
			live = apply(m, live, b, split+i)
		}

		end := m.Snapshot()
		m.Restore(snap)
		m2 := new(mem.Memory)
		m2.Restore(snap)
		// A memory that last held the other image must come out exactly
		// as a new one restored to the image, over the whole arrays: the
		// end image is larger or smaller than snap depending on the ops.
		swapped := new(mem.Memory)
		swapped.Restore(snap)
		swapped.Restore(end)
		want := new(mem.Memory)
		want.Restore(end)
		sameMemory(t, "snapshot image, then the end image", swapped, want)
		swapped.Restore(snap)
		sameMemory(t, "end image, then the snapshot image", swapped, m2)
		if !slices.Equal(m.Snapshot().Words(), snap.Words()) {
			t.Fatal("Restore did not reproduce the snapshot's words")
		}
		if !slices.Equal(m2.Snapshot().Words(), snap.Words()) {
			t.Fatal("a new Memory restored from the snapshot holds other words")
		}
		if m.WordsInUse() != m2.WordsInUse() {
			t.Fatalf("bump pointers diverge after round trip: restored %d, rebuilt %d",
				m.WordsInUse(), m2.WordsInUse())
		}

		// Replaying the post-snapshot suffix against both memories must
		// make identical allocator decisions: that pins the free lists and
		// allocation records, which word comparison alone cannot see.
		liveA, liveB := slices.Clone(liveAtSnap), slices.Clone(liveAtSnap)
		for i, b := range ops[split:] {
			liveA = apply(m, liveA, b, split+i)
			liveB = apply(m2, liveB, b, split+i)
			if !slices.Equal(liveA, liveB) {
				t.Fatalf("replay op %d: allocator decisions diverge between restored and rebuilt memories", split+i)
			}
		}
		if !slices.Equal(m.Snapshot().Words(), m2.Snapshot().Words()) {
			t.Fatal("replayed histories diverge between restored and rebuilt memories")
		}
	})
}
