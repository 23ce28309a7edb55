package mem_test

import (
	"strings"
	"testing"

	"hle/internal/mem"
	"hle/internal/rbtree"
	"hle/internal/tsx"
)

// sameMemory fails the test unless got and want hold the same array length,
// bump pointer, words and line metadata, compared over every line of the
// arrays rather than just the words in use: a restore that left an earlier
// image's words or bits past the bump pointer shows up here.
func sameMemory(t *testing.T, what string, got, want *mem.Memory) {
	t.Helper()
	if got.NumLines() != want.NumLines() || got.WordsInUse() != want.WordsInUse() {
		t.Fatalf("%s: %d lines, %d words in use; want %d lines, %d words in use",
			what, got.NumLines(), got.WordsInUse(), want.NumLines(), want.WordsInUse())
	}
	for a := 0; a < want.NumLines()*mem.LineWords; a++ {
		if g, w := got.Read(mem.Addr(a)), want.Read(mem.Addr(a)); g != w {
			t.Fatalf("%s: word %d is %#x, want %#x", what, a, g, w)
		}
	}
	for l := 0; l < want.NumLines(); l++ {
		if g, w := *got.LineByIndex(l), *want.LineByIndex(l); g != w {
			t.Fatalf("%s: line %d is %+v, want %+v", what, l, g, w)
		}
	}
}

// image builds a snapshot of a memory of initWords words whose first inUse
// words are allocated and written with values derived from seed. torn sets
// line bits on the used lines, as a watchdog-stopped run leaves them.
func image(initWords, inUse int, seed uint64, torn bool) *mem.Snapshot {
	m := mem.New(initWords)
	for m.WordsInUse() < inUse {
		a := m.Alloc(5)
		for i := range 5 {
			m.Write(a+mem.Addr(i), seed*1000+uint64(a)+uint64(i))
		}
	}
	if torn {
		for l := 1; l*mem.LineWords < m.WordsInUse(); l++ {
			*m.LineByIndex(l) = mem.LineMeta{Readers: seed<<8 | uint64(l), Writers: uint64(l) & 3}
		}
	}
	return m.Snapshot()
}

// TestRestoreSequenceMatchesFresh restores one memory through images of
// different array lengths and bump pointers, torn and quiescent, and checks
// after each step that it equals a new memory restored to the same image.
// Restore clears only up to the larger bump pointer, over the whole
// capacity, so a step that shrinks the array and a later one that regrows
// it must not bring back words or bits from before.
func TestRestoreSequenceMatchesFresh(t *testing.T) {
	largeTorn := image(4096, 3000, 1, true)
	small := image(256, 100, 2, false)
	large := image(4096, 1000, 3, false)
	empty := new(mem.Memory).Snapshot()
	smallTorn := image(256, 200, 4, true)

	steps := []struct {
		name string
		img  *mem.Snapshot
	}{
		{"large torn", largeTorn},
		{"small quiescent", small},
		{"large quiescent", large},
		{"empty", empty},
		{"large torn again", largeTorn},
		{"small torn", smallTorn},
		{"large quiescent again", large},
		{"small quiescent again", small},
	}
	m := new(mem.Memory)
	for _, st := range steps {
		m.Restore(st.img)
		fresh := new(mem.Memory)
		fresh.Restore(st.img)
		sameMemory(t, st.name, m, fresh)
	}
}

// TestSnapshotChecksZeroTail pins the DebugChecks guard on the invariant
// Snapshot relies on: a word or line bit past the bump pointer would be
// dropped from the image, so a memory made under DebugChecks panics
// instead. Without DebugChecks the guard costs nothing and checks nothing.
func TestSnapshotChecksZeroTail(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dirty func(m *mem.Memory)
	}{
		{"word", func(m *mem.Memory) { m.Write(mem.Addr(m.WordsInUse()+3), 1) }},
		{"line", func(m *mem.Memory) { m.LineByIndex(m.NumLines() - 1).Writers = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := mem.DebugChecks
			mem.DebugChecks = true
			m := mem.New(256)
			mem.DebugChecks = old
			m.Alloc(10)
			m.Snapshot() // a clean tail passes
			tc.dirty(m)
			func() {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(r.(string), "past the bump pointer") {
						t.Fatalf("Snapshot of a dirty tail: recovered %v, want a bump-pointer panic", r)
					}
				}()
				m.Snapshot()
			}()

			unchecked := mem.New(256)
			unchecked.Alloc(10)
			tc.dirty(unchecked)
			unchecked.Snapshot()
		})
	}
}

// BenchmarkRestore is the cost ladder's steady-state fork rung: restoring
// a populated 131072-node red-black tree image, in the figures' memory
// sizing, into a memory that last held the same image, as a recycled
// machine's Reset does. MB/s counts the image's words in use.
func BenchmarkRestore(b *testing.B) {
	const elems = 131072
	cfg := tsx.DefaultConfig(1)
	cfg.Seed = 1
	cfg.MemWords = elems*16 + 1<<16
	m := tsx.NewMachine(cfg)
	m.Fill(func(t *tsx.Thread) {
		tr := rbtree.New(t)
		for n := 0; n < elems; {
			if tr.Insert(t, uint64(t.Rand().Intn(2*elems)), 1) {
				n++
			}
		}
	})
	snap := m.Mem.Snapshot()
	dst := new(mem.Memory)
	dst.Restore(snap)
	b.SetBytes(int64(m.Mem.WordsInUse()) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Restore(snap)
	}
}
