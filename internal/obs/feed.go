package obs

import "hle/internal/tsx"

// WindowStats is one completed window of the incremental per-lock counter
// feed: how many critical-section attempts committed speculatively,
// completed non-speculatively, or aborted within the window, with aborts
// broken down into the classes an adaptive policy keys on. It is a plain
// value — no maps, no slices — so producing and consuming windows never
// allocates.
type WindowStats struct {
	// Index is the window's ordinal: the window covers virtual cycles
	// [Index*WindowCycles, (Index+1)*WindowCycles).
	Index int

	// Commits counts speculative commits; Serial counts operations that
	// completed non-speculatively (under a really-held lock); Aborts
	// counts aborted speculative attempts.
	Commits uint64
	Serial  uint64
	Aborts  uint64

	// Abort breakdown; LockLine+DataLine+Capacity+Explicit+Other == Aborts.
	// Explicit aborts are the software XABORTs the schemes issue on
	// observing the main lock held — lock pressure, like LockLine.
	LockLine uint64
	DataLine uint64
	Capacity uint64
	Explicit uint64
	Other    uint64
}

// Events returns the total attempt outcomes recorded in the window.
func (w WindowStats) Events() uint64 { return w.Commits + w.Serial + w.Aborts }

// Ops returns the completed operations recorded in the window.
func (w WindowStats) Ops() uint64 { return w.Commits + w.Serial }

// Feed turns a stream of per-attempt outcome events into consecutive
// WindowStats deliveries. It is the incremental counterpart of the
// Collector's batch timeline: a scheme feeds it directly from the
// execution path (no tsx.Observer slot consumed, so it composes with
// profiling), and the sink sees every window — including empty ones —
// exactly once, in order, as soon as an event lands past the window's end.
//
// The feed is allocation-free after construction and deterministic: the
// event stream is token-serialized by the simulator, so equal seeds
// produce identical window sequences at any host parallelism. An event
// whose clock precedes the current window (per-thread virtual clocks can
// trail the global maximum) folds into the current window rather than
// reopening a delivered one.
type Feed struct {
	window  uint64
	sink    func(WindowStats)
	cur     WindowStats
	started bool
}

// NewFeed builds a feed delivering windowCycles-sized windows to sink.
// A zero windowCycles selects DefaultWindowCycles; a nil sink discards
// windows (the zero-cost-when-off configuration).
func NewFeed(windowCycles uint64, sink func(WindowStats)) *Feed {
	if windowCycles == 0 {
		windowCycles = DefaultWindowCycles
	}
	return &Feed{window: windowCycles, sink: sink}
}

// Reset returns the feed to the state NewFeed left it in: no window
// started, nothing accumulated. The window size and sink are kept.
func (f *Feed) Reset() { f.cur, f.started = WindowStats{}, false }

// WindowCycles returns the feed's window size in virtual cycles.
func (f *Feed) WindowCycles() uint64 { return f.window }

// roll delivers every window that ends at or before clock and returns the
// accumulator for the window covering clock. The first event anchors the
// sequence: windows before it are never delivered.
func (f *Feed) roll(clock uint64) *WindowStats {
	idx := int(clock / f.window)
	if !f.started {
		f.started = true
		f.cur.Index = idx
		return &f.cur
	}
	for f.cur.Index < idx {
		done := f.cur
		f.cur = WindowStats{Index: done.Index + 1}
		if f.sink != nil {
			f.sink(done)
		}
	}
	return &f.cur
}

// Commit records a speculative commit at clock.
func (f *Feed) Commit(clock uint64) { f.roll(clock).Commits++ }

// SerialOp records a non-speculative completion at clock.
func (f *Feed) SerialOp(clock uint64) { f.roll(clock).Serial++ }

// Abort records an aborted speculative attempt of the given class at clock.
func (f *Feed) Abort(clock uint64, class Class) {
	w := f.roll(clock)
	w.Aborts++
	switch class {
	case ClassConflictLockLine, ClassSubscription:
		// A commit-time subscription failure is the lazy-subscription
		// shape of a lock-line conflict: same root cause (a pessimistic
		// holder), detected at commit instead of in-flight. Feed it to
		// the adaptive controller through the same bucket.
		w.LockLine++
	case ClassConflictDataLine:
		w.DataLine++
	case ClassCapacityWrite, ClassCapacityRead:
		w.Capacity++
	case ClassExplicit:
		w.Explicit++
	default:
		w.Other++
	}
}

// Tick advances the feed's clock without recording an event, delivering
// any windows that ended before clock. Call it from a steady point (e.g.
// each critical-section entry) so quiet periods still produce the empty
// windows dwell and probation counting depend on.
func (f *Feed) Tick(clock uint64) {
	if f.started {
		f.roll(clock)
	}
}

// Flush delivers the current partial window (if any event was recorded
// since the last delivery) and resets the feed. Call at end of run when
// the tail matters; steady-state consumers never need it.
func (f *Feed) Flush() {
	if !f.started {
		return
	}
	if f.sink != nil && f.cur.Events() > 0 {
		f.sink(f.cur)
	}
	f.cur = WindowStats{}
	f.started = false
}

// ClassOf maps an engine abort cause to its enriched class: conflicts are
// split by whether the conflicting line is lock infrastructure, and
// injector-forced aborts (observed as spurious) are attributed separately.
// It is the single classification rule shared by the batch Collector and
// the incremental Feed's producers.
func ClassOf(cause tsx.Cause, lockLine, injected bool) Class {
	switch cause {
	case tsx.CauseConflict:
		if lockLine {
			return ClassConflictLockLine
		}
		return ClassConflictDataLine
	case tsx.CauseCapacityWrite:
		return ClassCapacityWrite
	case tsx.CauseCapacityRead:
		return ClassCapacityRead
	case tsx.CauseSpurious:
		if injected {
			return ClassInjected
		}
		return ClassSpurious
	case tsx.CausePause:
		return ClassPause
	case tsx.CauseExplicit:
		return ClassExplicit
	case tsx.CauseHLERestore:
		return ClassHLERestore
	case tsx.CauseNested:
		return ClassNested
	case tsx.CauseSubscription:
		return ClassSubscription
	}
	return ClassSpurious // unreachable: finished aborts always have a cause
}
