package mem

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestReleasedArraysSeedNextFork: FromSnapshot copies the image into the
// arrays of a released memory of the same size, overwriting whatever the
// released memory left in them — words and line metadata alike.
func TestReleasedArraysSeedNextFork(t *testing.T) {
	spares.list = nil
	t.Cleanup(func() { spares.list = nil })

	src := New(1024)
	a := src.Alloc(3)
	src.Write(a, 7)
	snap := src.Snapshot()

	dirty := FromSnapshot(snap)
	for i := range dirty.words {
		dirty.words[i] = 0xdead
	}
	dirty.lines[LineOf(a)] = LineMeta{Readers: 1, Writers: 2}
	words := dirty.words
	dirty.Release()
	if dirty.words != nil || dirty.lines != nil {
		t.Fatal("Release left the arrays in the released memory")
	}

	fork := FromSnapshot(snap)
	if &fork.words[0] != &words[0] {
		t.Fatal("FromSnapshot allocated instead of reusing the released arrays")
	}
	if !slices.Equal(fork.words, snap.words) || !slices.Equal(fork.lines, snap.lines) {
		t.Fatal("fork over released arrays differs from the snapshot")
	}
	if got := fork.Alloc(3); got != src.Alloc(3) {
		t.Fatalf("fork allocator diverged from the source: %d", got)
	}

	// A different size never takes the spare.
	dirty = FromSnapshot(snap)
	words = dirty.words
	dirty.Release()
	other := FromSnapshot(New(2048).Snapshot())
	if &other.words[0] == &words[0] {
		t.Fatal("FromSnapshot reused arrays of another size")
	}
}

// TestSparesBounded: released arrays are kept for at most GOMAXPROCS later
// forks, newest first; older ones are dropped for the collector.
func TestSparesBounded(t *testing.T) {
	spares.list = nil
	t.Cleanup(func() { spares.list = nil })

	snap := New(256).Snapshot()
	n := runtime.GOMAXPROCS(0)
	var forks []*Memory
	for i := 0; i < n+2; i++ {
		forks = append(forks, FromSnapshot(snap))
	}
	newest := forks[len(forks)-1].words
	for _, m := range forks {
		m.Release()
	}
	if len(spares.list) != n {
		t.Fatalf("%d spare sets kept, want %d", len(spares.list), n)
	}
	if m := FromSnapshot(snap); &m.words[0] != &newest[0] {
		t.Fatal("FromSnapshot did not take the newest spare")
	}
}

// TestReleaseConcurrent: host workers forking and releasing at once never
// share a set of arrays, and every fork holds the image (run under -race).
func TestReleaseConcurrent(t *testing.T) {
	spares.list = nil
	t.Cleanup(func() { spares.list = nil })

	src := New(512)
	src.Write(src.Alloc(4), 42)
	snap := src.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := FromSnapshot(snap)
				if !slices.Equal(m.words, snap.words) {
					t.Error("fork differs from the snapshot")
					return
				}
				for j := range m.words {
					m.words[j] = uint64(w)
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
}
