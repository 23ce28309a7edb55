package tsx

import (
	"fmt"
	"testing"

	"hle/internal/mem"
)

// regions are the two transactional entry points whose begin frame
// catches abort unwinds: an RTM region and an elided HLE region, each
// running body inside its open transaction.
var regions = []struct {
	name string
	run  func(th *Thread, lock mem.Addr, body func())
}{
	{"RTM", func(th *Thread, _ mem.Addr, body func()) { th.RTM(body) }},
	{"HLE", func(th *Thread, lock mem.Addr, body func()) {
		th.HLERegion(func() {
			th.XAcquireSwap(lock, 1)
			body()
			th.XReleaseStore(lock, 0)
		})
	}},
}

// unwindMachine is a two-thread machine with one lock line per thread, and
// a checkpoint of it.
func unwindMachine(t *testing.T) (*Machine, *Checkpoint, [2]mem.Addr) {
	t.Helper()
	m := newTestMachine(2, 3)
	var locks [2]mem.Addr
	m.RunOne(func(th *Thread) {
		for i := range locks {
			locks[i] = th.AllocLines(1)
		}
	})
	return m, m.Checkpoint(), locks
}

// TestStopUnwindsOpenRegion: a scheduler stop order reaching a thread
// inside an open transaction unwinds it straight out of the region — the
// region never returns, no abort is counted, and the proc reports Stopped
// with its transaction still open (torn, for diagnostics only).
func TestStopUnwindsOpenRegion(t *testing.T) {
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			m, _, locks := unwindMachine(t)
			m.SetWatchdog(func(minClock uint64) bool { return minClock > 20_000 })
			var returned [2]bool
			threads := m.Run(2, func(th *Thread) {
				rg.run(th, locks[th.ID], func() {
					for {
						th.Work(100)
					}
				})
				returned[th.ID] = true
			})
			if !m.Stopped() {
				t.Fatal("machine not stopped")
			}
			for _, th := range threads {
				if !th.Stopped() || !th.InTx() || returned[th.ID] {
					t.Errorf("thread %d: stopped=%v in-tx=%v region returned=%v, want true true false",
						th.ID, th.Stopped(), th.InTx(), returned[th.ID])
				}
				if rg.name == "HLE" && !th.InElision() {
					t.Errorf("thread %d: stopped outside its elided transaction", th.ID)
				}
				if n := th.Stats.TotalAborts(); n != 0 || th.aborting {
					t.Errorf("thread %d: %d aborts counted, aborting=%v: the stop was taken for an abort", th.ID, n, th.aborting)
				}
			}
		})
	}
}

// TestStopDuringAbortUnwind: a stop order that arrives while an abort is
// still unwinding (a deferred call in the body yields the scheduler)
// replaces the abort's panic; the begin frame must let it through rather
// than complete the abort, so the stopped thread's transaction stays open
// and no abort is counted.
func TestStopDuringAbortUnwind(t *testing.T) {
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			m, _, locks := unwindMachine(t)
			stop := false
			m.SetWatchdog(func(uint64) bool { return stop })
			var returned [2]bool
			threads := m.Run(2, func(th *Thread) {
				rg.run(th, locks[th.ID], func() {
					defer th.Work(1 << 20) // yields mid-unwind, into the stop order
					stop = true
					th.Abort(0x42)
				})
				returned[th.ID] = true
			})
			torn := 0
			for _, th := range threads {
				if th == nil {
					continue
				}
				if !th.Stopped() || returned[th.ID] {
					t.Errorf("thread %d: stopped=%v region returned=%v, want true false", th.ID, th.Stopped(), returned[th.ID])
				}
				if n := th.Stats.TotalAborts(); n != 0 {
					t.Errorf("thread %d: %d aborts counted: the stop completed an abort", th.ID, n)
				}
				if th.InTx() {
					torn++
				}
			}
			if torn == 0 {
				t.Error("no thread was stopped inside its aborting transaction")
			}
		})
	}
}

// foreignPanic is a panic value no engine layer knows.
type foreignPanic struct{ code int }

// TestForeignPanicPassesThrough: a panic from a transaction body that is
// neither an abort nor a stop is not taken for an abort: it reaches
// sim.Run's re-raise with its original value.
func TestForeignPanicPassesThrough(t *testing.T) {
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			m, _, locks := unwindMachine(t)
			var got any
			func() {
				defer func() { got = recover() }()
				m.RunOne(func(th *Thread) {
					rg.run(th, locks[0], func() {
						th.Store(locks[1], 9)
						panic(foreignPanic{7})
					})
					t.Error("region returned after a foreign panic")
				})
			}()
			if want := fmt.Sprintf("sim: proc 0 panicked: %v", foreignPanic{7}); got != want {
				t.Errorf("re-raised %v, want %q", got, want)
			}
		})
	}
}

// TestAbortAfterStoppedRun: after a run stopped with every thread inside
// an open transaction, the machine reset to its image runs transactions
// whose aborts unwind and report exactly as on a fresh fork.
func TestAbortAfterStoppedRun(t *testing.T) {
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			m, cp, locks := unwindMachine(t)
			m.SetWatchdog(func(minClock uint64) bool { return minClock > 20_000 })
			m.Run(2, func(th *Thread) {
				rg.run(th, locks[th.ID], func() {
					for {
						th.Work(100)
					}
				})
			})
			if !m.Stopped() {
				t.Fatal("first run not stopped")
			}
			body := func(th *Thread) {
				aborted := 0
				rg.run(th, locks[th.ID], func() {
					if aborted == 0 {
						aborted++
						th.Store(locks[th.ID]+1, 5)
						th.Abort(0x42)
					}
				})
				if aborted != 1 || th.InTx() {
					t.Errorf("thread %d: aborted %d times, in-tx=%v after the region", th.ID, aborted, th.InTx())
				}
			}
			m.Reset(cp)
			got := m.Run(2, body)
			want := FromCheckpoint(cp).Run(2, body)
			for i := range got {
				if got[i].Stopped() || got[i].Stats != want[i].Stats || got[i].Clock() != want[i].Clock() {
					t.Errorf("thread %d after a stopped run: stopped=%v stats %+v clock %d, fresh fork: stats %+v clock %d",
						i, got[i].Stopped(), got[i].Stats, got[i].Clock(), want[i].Stats, want[i].Clock())
				}
				if got[i].Stats.Aborted[CauseExplicit] != 1 {
					t.Errorf("thread %d: explicit aborts %d, want 1", i, got[i].Stats.Aborted[CauseExplicit])
				}
			}
		})
	}
}
