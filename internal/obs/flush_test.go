package obs_test

import (
	"reflect"
	"testing"

	"hle/internal/obs"
)

// TestProfileFlushesOpenSpans exercises the mid-run snapshot path: when
// Profile is taken while threads are still inside transactions, their open
// occupancy spans must be credited to the timeline copy — split across
// windows, clamped into the open-ended last window past MaxWindows — and
// a later Profile must see the same spans plus whatever happened since. The event stream is fed
// directly: the Observer contract is the package's input surface, and
// hand-built clocks pin the window arithmetic exactly.
func TestProfileFlushesOpenSpans(t *testing.T) {
	c := obs.New(obs.Options{WindowCycles: 100, MaxWindows: 3})

	// Thread 0: transaction opens at 50; a serial mark at 950 advances its
	// last observed clock while speculation stays the occupancy mode.
	c.TxBegin(0, 50)
	c.Serial(0, 950, true)
	// Thread 1: transaction opens at 500 — already past the clamped
	// window range, so its whole span lands in the last window.
	c.TxBegin(1, 500)
	c.Serial(1, 980, true)

	p := c.Profile()
	if p.TotalBegun != 2 || p.TotalCommits != 0 {
		t.Fatalf("begun=%d commits=%d, want 2/0", p.TotalBegun, p.TotalCommits)
	}
	if len(p.Timeline) != 3 {
		t.Fatalf("timeline has %d windows, want 3 (MaxWindows clamp)", len(p.Timeline))
	}
	// Thread 0 contributes [50,950): 50 to window 0, 100 to window 1, 750
	// to the open-ended window 2. Thread 1 contributes [500,980): 480,
	// clamped entirely into window 2.
	want := []uint64{50, 100, 750 + 480}
	for i, w := range p.Timeline {
		if w.SpecCycles != want[i] {
			t.Errorf("window %d: spec cycles %d, want %d", i, w.SpecCycles, want[i])
		}
		if w.SerialCycles != 0 {
			t.Errorf("window %d: serial cycles %d, want 0 (speculation outranks serialization)",
				i, w.SerialCycles)
		}
	}

	// Profile is non-destructive: an identical second snapshot.
	if p2 := c.Profile(); !reflect.DeepEqual(p, p2) {
		t.Fatal("second Profile differs from the first with no events in between")
	}

	// After the transactions close, the spans are owned by the live
	// timeline and the snapshot flush must not double-count them.
	c.TxCommit(0, 990, 50, 3)
	c.TxCommit(1, 1000, 500, 2)
	p3 := c.Profile()
	var spec uint64
	for _, w := range p3.Timeline {
		spec += w.SpecCycles
	}
	if wantSpec := uint64((990 - 50) + (1000 - 500)); spec != wantSpec {
		t.Fatalf("spec cycles after commits = %d, want %d", spec, wantSpec)
	}
	if p3.TotalCommits != 2 {
		t.Fatalf("commits = %d, want 2", p3.TotalCommits)
	}
}

// TestProfileSpanStopsAtRepetitionEnd pins the open-span rule across
// repetitions: per-thread clocks restart with every machine Run, so an
// open span is credited up to the thread's latest event, not the highest
// clock an earlier repetition reached.
func TestProfileSpanStopsAtRepetitionEnd(t *testing.T) {
	c := obs.New(obs.Options{WindowCycles: 100})

	// First repetition: thread 0 runs to clock 1000 and ends outside any
	// transaction.
	c.TxBegin(0, 600)
	c.TxCommit(0, 1000, 600, 1)
	// Second repetition: a transaction opens at 100 and is still open at
	// the thread's last report, 300.
	c.TxBegin(0, 100)
	c.Serial(0, 300, true)

	var spec uint64
	for _, w := range c.Profile().Timeline {
		spec += w.SpecCycles
	}
	if want := uint64((1000 - 600) + (300 - 100)); spec != want {
		t.Fatalf("spec cycles = %d, want %d: 400 from the first repetition plus the open span's 200, not 900",
			spec, want)
	}
}
