package harness

import (
	"fmt"
	"strings"

	"hle/internal/locks"
	"hle/internal/tsx"
)

// WatchdogConfig arms liveness detection for a measurement run
// (Config.Watchdog). All windows are in virtual cycles; a zero window
// disables that detector.
type WatchdogConfig struct {
	// LivelockWindow trips when no thread completes an operation for this
	// many cycles while unfinished threads remain — the machine as a
	// whole is spinning (aborting, backing off) without progress.
	LivelockWindow uint64
	// StarvationWindow trips when one unfinished thread completes no
	// operation for this many cycles while some other thread does — the
	// victim is starving, not the machine. It should be comfortably
	// larger than the longest legitimate gap between a thread's
	// operations (queue-lock convoys make gaps of many critical-section
	// lengths).
	StarvationWindow uint64
	// Monitor, when non-nil, enables waits-for deadlock detection over
	// the locks registered with it (see locks.Monitored). The watchdog
	// resets the monitor when the run starts.
	Monitor *locks.Monitor
	// CheckEvery throttles the deadlock graph walk to every n-th
	// scheduler grant (the liveness windows are checked on every grant,
	// which is O(threads)). Zero selects 64.
	CheckEvery int
	// Context is a free-form label included in diagnostic dumps —
	// typically the scheme/lock under test and the fault schedule.
	Context string
}

// LivelockWindow is the livelock window for a run of scheme s: 2e6
// cycles, far beyond any legitimate gap between operations and far below
// a hung test timeout — or 3e7 for HLE-HWExt. A liveness window must
// exceed the scheme's longest legitimate progress gap, and the Chapter 7
// extension suspends a speculative thread for up to maxWaitIters wait
// steps (~2^20 × Costs.Wait ≈ 2·10^7 cycles) before its spurious-abort
// escape hatch fires; a fault landing mid-suspension makes gaps of that
// order, from which the scheme provably recovers.
func LivelockWindow(s SchemeSpec) uint64 {
	if s.Scheme == "HLE-HWExt" {
		return 30_000_000
	}
	return 2_000_000
}

// Failure reasons.
const (
	ReasonLivelock   = "livelock"
	ReasonStarvation = "starvation"
	ReasonDeadlock   = "deadlock"
)

// maxDumpEvents bounds the engine events included in a diagnostic dump.
const maxDumpEvents = 64

// ThreadState is one thread's state at the moment a watchdog stopped the
// run, captured into a Failure.
type ThreadState struct {
	ID     int
	Clock  uint64 // virtual time the thread had reached
	LastOp uint64 // virtual time of its last completed operation
	Done   bool   // thread had finished its measurement loop
	InTx   bool   // thread was unwound inside an open transaction
	Stats  tsx.Stats
}

// Failure is the structured result of a watchdog trip: instead of hanging
// or panicking, the run stops and reports what the machine was doing. Its
// Dump is bounded and deterministic — equal seeds and fault schedules
// produce byte-identical dumps.
type Failure struct {
	// Reason is one of ReasonLivelock, ReasonStarvation, ReasonDeadlock.
	Reason string
	// Thread is the starving thread, or -1.
	Thread int
	// Cycle is the waits-for cycle (deadlock only).
	Cycle []int
	// Clock is the minimum virtual clock when the watchdog tripped.
	Clock uint64
	// Context echoes WatchdogConfig.Context.
	Context string
	// Threads is the per-thread state at the stop.
	Threads []ThreadState
	// Events is the tail of the machine's trace ring (at most
	// maxDumpEvents entries; nil when the machine has no ring).
	Events []tsx.TraceEvent
}

// Error makes Failure usable as an error.
func (f *Failure) Error() string {
	switch f.Reason {
	case ReasonStarvation:
		return fmt.Sprintf("watchdog: starvation of thread %d at cycle %d", f.Thread, f.Clock)
	case ReasonDeadlock:
		return fmt.Sprintf("watchdog: deadlock %v at cycle %d", f.Cycle, f.Clock)
	}
	return fmt.Sprintf("watchdog: %s at cycle %d", f.Reason, f.Clock)
}

// Dump renders the full bounded diagnostic: the trip, per-thread state,
// and the last engine events. The output is deterministic.
func (f *Failure) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Error())
	if f.Context != "" {
		fmt.Fprintf(&b, "context: %s\n", f.Context)
	}
	fmt.Fprintf(&b, "threads:\n")
	for _, ts := range f.Threads {
		fmt.Fprintf(&b, "  T%d clock=%d last-op=%d done=%v in-tx=%v committed=%d aborted=%d\n",
			ts.ID, ts.Clock, ts.LastOp, ts.Done, ts.InTx, ts.Stats.Committed, ts.Stats.TotalAborts())
	}
	if len(f.Events) > 0 {
		fmt.Fprintf(&b, "last %d engine events:\n", len(f.Events))
		for _, ev := range f.Events {
			fmt.Fprintf(&b, "  T%d@%d %s addr=%d val=%d\n", ev.Thread, ev.Clock, ev.Kind, ev.Addr, ev.Val)
		}
	}
	return b.String()
}

// Watchdog tracks per-thread progress during a run and implements the
// scheduler's liveness check (tsx.Machine.SetWatchdog). All methods are
// called from token-serialized simulated execution or from the scheduler
// between grants, so no synchronization is needed.
type Watchdog struct {
	cfg WatchdogConfig
	n   int

	lastOp [locks.MaxThreads]uint64
	done   [locks.MaxThreads]bool
	ndone  int
	checks int

	// expiry caches the earliest minimum clock at which a liveness
	// window can expire, given lastOp and done; below it Check skips the
	// scan. NoteOp and NoteDone zero it, which makes the next Check scan
	// and recompute it: progress moves the deadlines, and can make one
	// that already passed without tripping trip now (a starving thread's
	// window only counts once someone else has progressed).
	expiry uint64

	tripped   bool
	reason    string
	victim    int
	cycle     []int
	tripClock uint64
}

// NewWatchdog arms a watchdog for a run with n threads.
func NewWatchdog(cfg WatchdogConfig, n int) *Watchdog {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 64
	}
	if cfg.Monitor != nil {
		cfg.Monitor.Reset()
	}
	return &Watchdog{cfg: cfg, n: n, victim: -1}
}

// NoteOp records that thread id completed an operation at the given clock.
func (wd *Watchdog) NoteOp(id int, clock uint64) {
	wd.lastOp[id] = clock
	wd.expiry = 0
}

// NoteDone records that thread id finished its measurement loop; finished
// threads are exempt from liveness windows.
func (wd *Watchdog) NoteDone(id int) {
	if !wd.done[id] {
		wd.done[id] = true
		wd.ndone++
		wd.expiry = 0
	}
}

// Tripped reports whether the watchdog stopped the run, and why.
func (wd *Watchdog) Tripped() (bool, string) { return wd.tripped, wd.reason }

// Check is the scheduler callback: it inspects progress at the machine's
// minimum virtual clock and returns true to stop the run. Trip priority:
// deadlock, then starvation, then livelock.
func (wd *Watchdog) Check(minClock uint64) bool {
	if wd.tripped {
		return true
	}
	if wd.ndone >= wd.n {
		return false
	}
	wd.checks++
	if mo := wd.cfg.Monitor; mo != nil && wd.checks%wd.cfg.CheckEvery == 0 {
		if cyc := mo.Cycle(); cyc != nil {
			wd.trip(ReasonDeadlock, -1, cyc, minClock)
			return true
		}
	}
	if minClock < wd.expiry {
		return false
	}
	lastAny := wd.lastAny()
	if w := wd.cfg.StarvationWindow; w > 0 {
		for id := 0; id < wd.n; id++ {
			if wd.done[id] || wd.lastOp[id]+w > minClock {
				continue
			}
			if lastAny > wd.lastOp[id] {
				// Someone else progressed since the victim last did:
				// starvation, not collective livelock.
				wd.trip(ReasonStarvation, id, nil, minClock)
				return true
			}
		}
	}
	if w := wd.cfg.LivelockWindow; w > 0 && lastAny+w <= minClock {
		wd.trip(ReasonLivelock, -1, nil, minClock)
		return true
	}
	wd.expiry = wd.nextExpiry()
	return false
}

// lastAny is the most recent completed operation machine-wide, over
// unfinished threads' last ops and finished threads alike.
func (wd *Watchdog) lastAny() uint64 {
	var last uint64
	for id := 0; id < wd.n; id++ {
		last = max(last, wd.lastOp[id])
	}
	return last
}

// nextExpiry is the smallest minClock at which Check's scan would trip on
// the current progress state: the earliest starvation deadline among
// unfinished threads someone else has progressed past, or the livelock
// deadline. The deadlines are the scan's own (wrapping) sums, so the scan
// trips at exactly the clocks where it would without the cache, and a
// cached expiry is only ever reached by a Check that trips; with no window
// armed nothing ever expires.
func (wd *Watchdog) nextExpiry() uint64 {
	expiry := ^uint64(0)
	lastAny := wd.lastAny()
	if w := wd.cfg.StarvationWindow; w > 0 {
		for id := 0; id < wd.n; id++ {
			if !wd.done[id] && lastAny > wd.lastOp[id] {
				expiry = min(expiry, wd.lastOp[id]+w)
			}
		}
	}
	if w := wd.cfg.LivelockWindow; w > 0 {
		expiry = min(expiry, lastAny+w)
	}
	return expiry
}

func (wd *Watchdog) trip(reason string, victim int, cycle []int, clock uint64) {
	wd.tripped = true
	wd.reason = reason
	wd.victim = victim
	wd.cycle = cycle
	wd.tripClock = clock
}

// Failure builds the structured diagnostic after a watchdog-stopped run,
// from the machine's trace ring and the returned threads.
func (wd *Watchdog) Failure(m *tsx.Machine, threads []*tsx.Thread) *Failure {
	f := &Failure{
		Reason:  wd.reason,
		Thread:  wd.victim,
		Cycle:   wd.cycle,
		Clock:   wd.tripClock,
		Context: wd.cfg.Context,
	}
	for _, th := range threads {
		if th == nil {
			continue // stopped before the thread body even started
		}
		f.Threads = append(f.Threads, ThreadState{
			ID:     th.ID,
			Clock:  th.Clock(),
			LastOp: wd.lastOp[th.ID],
			Done:   wd.done[th.ID],
			InTx:   th.InTx(),
			Stats:  th.Stats,
		})
	}
	evs := m.TraceEvents()
	if len(evs) > maxDumpEvents {
		evs = evs[len(evs)-maxDumpEvents:]
	}
	f.Events = evs
	return f
}
