package mem

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestLineMath(t *testing.T) {
	if LineOf(0) != 0 || LineOf(7) != 0 || LineOf(8) != 1 {
		t.Fatal("LineOf wrong")
	}
	if LineAddr(3) != 24 {
		t.Fatalf("LineAddr(3) = %d, want 24", LineAddr(3))
	}
}

func TestAllocDisjoint(t *testing.T) {
	m := New(64)
	seen := map[Addr]bool{}
	sizes := []int{1, 2, 3, 8, 5, 16, 1, 7}
	for _, n := range sizes {
		a := m.Alloc(n)
		if a == Nil {
			t.Fatal("allocated nil address")
		}
		for i := 0; i < n; i++ {
			w := a + Addr(i)
			if seen[w] {
				t.Fatalf("word %d allocated twice", w)
			}
			seen[w] = true
		}
	}
}

func TestSmallAllocDoesNotStraddleLines(t *testing.T) {
	m := New(64)
	for i := 0; i < 50; i++ {
		n := i%LineWords + 1
		a := m.Alloc(n)
		if LineOf(a) != LineOf(a+Addr(n-1)) {
			t.Fatalf("alloc of %d words at %d straddles a line boundary", n, a)
		}
	}
}

func TestAllocLinesAlignedAndExclusive(t *testing.T) {
	m := New(64)
	m.Alloc(3) // perturb alignment
	a := m.AllocLines(2)
	if int(a)%LineWords != 0 {
		t.Fatalf("AllocLines returned unaligned address %d", a)
	}
	b := m.Alloc(1)
	if LineOf(b) == LineOf(a) {
		t.Fatalf("subsequent Alloc landed on AllocLines line")
	}
}

func TestFreeReuse(t *testing.T) {
	m := New(64)
	a := m.Alloc(4)
	m.Free(a, 4)
	b := m.Alloc(4)
	if a != b {
		t.Fatalf("free-list reuse failed: got %d want %d", b, a)
	}
	la := m.AllocLines(1)
	m.FreeLines(la, 1)
	lb := m.AllocLines(1)
	if la != lb {
		t.Fatalf("line free-list reuse failed: got %d want %d", lb, la)
	}
}

func TestGrowth(t *testing.T) {
	m := New(64)
	a := m.Alloc(10000)
	m.Write(a+9999, 42)
	if m.Read(a+9999) != 42 {
		t.Fatal("write after growth lost")
	}
	if m.NumLines()*LineWords < 10000 {
		t.Fatal("line metadata did not grow with words")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(256)
	f := func(off uint16, v uint64) bool {
		a := Addr(off%200) + LineWords
		m.Write(a, v)
		return m.Read(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocDisjointProperty: random interleavings of alloc/free never hand
// out overlapping live blocks.
func TestAllocDisjointProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(64)
		type block struct {
			a Addr
			n int
		}
		var live []block
		owner := map[Addr]int{} // word -> block index
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				b := live[i]
				for w := 0; w < b.n; w++ {
					delete(owner, b.a+Addr(w))
				}
				m.Free(b.a, b.n)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := int(op)%9 + 1
			a := m.Alloc(n)
			for w := 0; w < n; w++ {
				if _, clash := owner[a+Addr(w)]; clash {
					return false
				}
				owner[a+Addr(w)] = len(live)
			}
			live = append(live, block{a, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-memory panic")
		}
	}()
	m := New(64)
	m.maxWords = 1024
	m.Alloc(2048)
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Alloc(0)")
		}
	}()
	New(64).Alloc(0)
}

func TestAccessors(t *testing.T) {
	m := New(64)
	a := m.Alloc(2)
	if m.Line(a) != m.LineByIndex(LineOf(a)) {
		t.Fatal("Line accessors disagree")
	}
	if m.WordsInUse() <= int(a) {
		t.Fatal("WordsInUse below allocated address")
	}
	// New clamps tiny initial sizes.
	small := New(1)
	if small.NumLines() < 4 {
		t.Fatal("New did not clamp initial size")
	}
}

func TestBigSizeClassReuse(t *testing.T) {
	m := New(64)
	a := m.Alloc(smallClasses * 3) // beyond the dense classes
	m.Free(a, smallClasses*3)
	if b := m.Alloc(smallClasses * 3); b != a {
		t.Fatalf("big word class reuse failed: got %d want %d", b, a)
	}
	la := m.AllocLines(smallClasses * LineWords * 2)
	m.FreeLines(la, smallClasses*LineWords*2)
	if lb := m.AllocLines(smallClasses * LineWords * 2); lb != la {
		t.Fatalf("big line class reuse failed: got %d want %d", lb, la)
	}
}

func TestFreeLinesPaddedSizeEquivalence(t *testing.T) {
	// FreeLines keys by padded whole-line size: freeing with any word count
	// that rounds to the same line count reuses the block.
	m := New(64)
	a := m.AllocLines(9) // pads to 2 lines
	m.FreeLines(a, 10)   // also 2 lines
	if b := m.AllocLines(16); b != a {
		t.Fatalf("padded-size free-list reuse failed: got %d want %d", b, a)
	}
}

func TestFreeTableDrain(t *testing.T) {
	var f FreeTable
	f.Push(4, false, 100)
	f.Push(smallClasses+1, false, 200)
	f.Push(8, true, 300)
	f.Push((smallClasses+1)*LineWords, true, 400)
	got := map[Addr][2]int{}
	f.Drain(func(n int, lines bool, a Addr) {
		k := 0
		if lines {
			k = 1
		}
		got[a] = [2]int{n, k}
	})
	want := map[Addr][2]int{
		100: {4, 0}, 200: {smallClasses + 1, 0},
		300: {8, 1}, 400: {(smallClasses + 1) * LineWords, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d blocks, want %d", len(got), len(want))
	}
	for a, w := range want {
		if got[a] != w {
			t.Errorf("block %d drained as %v, want %v", a, got[a], w)
		}
	}
	// A drained table is empty.
	f.Drain(func(n int, lines bool, a Addr) { t.Errorf("second drain yielded %d", a) })
	if f.Pop(4, false) != Nil || f.Pop(8, true) != Nil {
		t.Fatal("drained table still pops blocks")
	}
}

// TestFreeTableCopyFrom: copying a table with a few non-empty word, line
// and big classes — into a new table, and into a dirty one holding other
// classes — pops exactly the source's blocks in the source's order, and
// the copy shares no storage with the source.
func TestFreeTableCopyFrom(t *testing.T) {
	type class struct {
		n     int
		lines bool
	}
	fill := func(f *FreeTable, base Addr, cs []class) {
		for i, c := range cs {
			for j := 0; j < 3; j++ {
				f.Push(c.n, c.lines, base+Addr(100*i+j))
			}
		}
	}
	srcClasses := []class{
		{3, false}, {smallClasses - 1, false}, {smallClasses + 5, false},
		{LineWords, true}, {5 * LineWords, true}, {(smallClasses + 2) * LineWords, true},
	}
	// Classes only the dirty destination holds, plus one it shares.
	dirtyClasses := []class{{4, false}, {2 * LineWords, true}, {smallClasses + 9, false}, {3, false}}
	all := append(slices.Clone(srcClasses), dirtyClasses...)
	popAll := func(f *FreeTable) map[class][]Addr {
		got := map[class][]Addr{}
		for _, c := range all {
			for a := f.Pop(c.n, c.lines); a != Nil; a = f.Pop(c.n, c.lines) {
				got[c] = append(got[c], a)
			}
		}
		return got
	}

	var src FreeTable
	fill(&src, 1000, srcClasses)
	src.Pop(3, false) // a class that was pushed, then partly popped
	var fresh, dirty FreeTable
	fill(&dirty, 5000, dirtyClasses)
	fresh.copyFrom(&src)
	dirty.copyFrom(&src)

	// Pushing onto a copy must not show up in the source.
	fresh.Push(3, false, 9999)
	fresh.Pop(3, false)

	var ref FreeTable
	fill(&ref, 1000, srcClasses)
	ref.Pop(3, false)
	want := popAll(&ref)
	for name, f := range map[string]*FreeTable{"fresh": &fresh, "dirty": &dirty, "source": &src} {
		if got := popAll(f); !reflect.DeepEqual(got, want) {
			t.Errorf("%s table pops %v, want %v", name, got, want)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := New(64)
	a := m.Alloc(4)
	m.Write(a, 7)
	b := m.AllocLines(2)
	m.Write(b, 9)
	m.Free(a, 4) // leave a block on the free lists
	snap := m.Snapshot()

	// Mutate the original past the snapshot.
	c := m.Alloc(4) // pops the freed block
	if c != a {
		t.Fatalf("expected free-list reuse, got %d want %d", c, a)
	}
	m.Write(b, 1000)

	r := restored(snap)
	if r.Read(a) != 7 || r.Read(b) != 9 {
		t.Fatal("snapshot did not preserve word contents")
	}
	if r.WordsInUse() != int(snap.next) {
		t.Fatal("snapshot bump pointer mismatch")
	}
	// The restored memory sees the freed block, independently of the
	// original having popped it.
	if d := r.Alloc(4); d != a {
		t.Fatalf("restored free lists lost block: got %d want %d", d, a)
	}
	// Restored memory is fully independent.
	r.Write(b, 5)
	if m.Read(b) != 1000 {
		t.Fatal("restored memory aliases the original")
	}

	// Restore-in-place resets state too.
	m.Restore(snap)
	if m.Read(b) != 9 {
		t.Fatal("Restore did not reset word contents")
	}
	if d := m.Alloc(4); d != a {
		t.Fatal("Restore did not reset free lists")
	}

	// A torn image (line bits left set by a stopped transaction) keeps its
	// bits through a snapshot; restoring a quiescent snapshot clears them.
	torn := LineMeta{Readers: 0b101, Writers: 0b10}
	*m.Line(b) = torn
	tornSnap := m.Snapshot()
	*m.Line(b) = LineMeta{Readers: 1 << 63}
	*m.Line(a) = torn
	if r := restored(tornSnap); *r.Line(b) != torn || *r.Line(a) != (LineMeta{}) {
		t.Fatalf("torn snapshot restored lines %+v and %+v into a new memory", *r.Line(b), *r.Line(a))
	}
	m.Restore(tornSnap)
	if *m.Line(b) != torn || *m.Line(a) != (LineMeta{}) {
		t.Fatalf("torn snapshot restored lines %+v and %+v in place", *m.Line(b), *m.Line(a))
	}
	m.Restore(snap)
	for l := 0; l < m.NumLines(); l++ {
		if *m.LineByIndex(l) != (LineMeta{}) {
			t.Fatalf("quiescent snapshot left line %d's bits %+v", l, *m.LineByIndex(l))
		}
	}
}

func TestSnapshotIndependentFreeLists(t *testing.T) {
	m := New(64)
	blocks := make([]Addr, 4)
	for i := range blocks {
		blocks[i] = m.Alloc(6)
	}
	for _, b := range blocks {
		m.Free(b, 6)
	}
	snap := m.Snapshot()
	r1, r2 := restored(snap), restored(snap)
	// Both copies must hand out the same sequence from their own lists.
	for i := 0; i < 4; i++ {
		x, y := r1.Alloc(6), r2.Alloc(6)
		if x != y {
			t.Fatalf("clone free lists diverged at %d: %d vs %d", i, x, y)
		}
	}
}

// restored returns a new Memory restored from s.
func restored(s *Snapshot) *Memory {
	m := new(Memory)
	m.Restore(s)
	return m
}

func withDebugChecks(t *testing.T) *Memory {
	t.Helper()
	DebugChecks = true
	t.Cleanup(func() { DebugChecks = false })
	return New(64)
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", want)
		}
	}()
	fn()
}

func TestDebugChecksKindConfusion(t *testing.T) {
	m := withDebugChecks(t)
	a := m.Alloc(8)
	mustPanic(t, "word block freed as lines", func() { m.FreeLines(a, 8) })

	m2 := withDebugChecks(t)
	b := m2.AllocLines(8)
	mustPanic(t, "line block freed as words", func() { m2.Free(b, 8) })
}

func TestDebugChecksDoubleFreeAndSize(t *testing.T) {
	m := withDebugChecks(t)
	a := m.Alloc(4)
	m.Free(a, 4)
	mustPanic(t, "double free", func() { m.Free(a, 4) })

	m2 := withDebugChecks(t)
	b := m2.Alloc(4)
	mustPanic(t, "size mismatch", func() { m2.Free(b, 5) })

	m3 := withDebugChecks(t)
	mustPanic(t, "unknown address", func() { m3.Free(500, 4) })
}

func TestDebugChecksHappyPath(t *testing.T) {
	m := withDebugChecks(t)
	a := m.Alloc(4)
	m.Free(a, 4)
	if b := m.Alloc(4); b != a {
		t.Fatal("reuse failed under debug checks")
	}
	m.Free(a, 4) // legal again: block is live after realloc
	la := m.AllocLines(3)
	m.FreeLines(la, 5) // same padded size: legal
}
