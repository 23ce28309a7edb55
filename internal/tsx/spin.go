package tsx

import "hle/internal/mem"

// spinWait is a thread's wait in Spin, kept as a resumable state machine
// over the loop's two yield points: the load's cost Step and the pause's.
// A parked thread's grants run it on whichever goroutine holds the
// scheduler token (sim.Waiter), so it touches nothing but what the loop's
// loads and pauses touch.
type spinWait struct {
	t      *Thread
	addr   mem.Addr
	val    uint64
	eq     bool   // pause while the word equals val (false: while it differs)
	rounds int    // loads left before the wait gives up (negative: no bound)
	loaded bool   // the load's cost is charged and its read is still pending
	got    uint64 // the last value loaded (val before the first load)
}

// Spin is the spin-wait loop
//
//	for i := 0; rounds < 0 || i < rounds; i++ {
//		if got = t.Load(a); (got == val) != eq {
//			break
//		}
//		t.Pause()
//	}
//
// It pauses while the word at a equals val (eq) or differs from it (!eq),
// for at most rounds loads unless rounds is negative, and returns the last
// value loaded (val when it loaded nothing). Every lock's single-word wait
// goes through it.
//
// Outside a transaction, on a machine with no fault injector and no
// private-cache model, a load and a pause yield the scheduler only at their
// cost Steps, and Spin runs the loop as a state machine: once the wait runs
// a grant out, the thread parks (sim.Proc.Park) and its later grants are
// served in place, without resuming its coroutine, until the word's value
// ends the wait. The served grants charge the same jittered costs, issue
// the same coherence requests, reads and trace events, and make the same
// scheduling decisions in the same order as the literal loop, so the run is
// the same. Inside a transaction it is the literal loop: PAUSE aborts there.
func (t *Thread) Spin(a mem.Addr, val uint64, eq bool, rounds int) uint64 {
	if t.tx != nil || t.m.inj != nil || t.cache != nil {
		got := val
		for i := 0; rounds < 0 || i < rounds; i++ {
			if got = t.Load(a); (got == val) != eq {
				break
			}
			t.Pause()
		}
		return got
	}
	w := &t.spin
	*w = spinWait{t: t, addr: a, val: val, eq: eq, rounds: rounds, got: val}
	if !w.Advance() {
		t.Proc.Park(w)
	}
	return w.got
}

// SpinWhile pauses while the word at a equals val and returns the value
// that ended the wait: Spin with no bound.
func (t *Thread) SpinWhile(a mem.Addr, val uint64) uint64 {
	return t.Spin(a, val, true, -1)
}

// Advance implements sim.Waiter: it runs the wait on the thread's current
// grant, one Load or Pause cost Tick at a time.
func (w *spinWait) Advance() bool {
	t := w.t
	costs := &t.m.cfg.Costs
	for {
		if w.loaded {
			// The rest of Load after its Step, and Pause, whose Step is
			// all it does outside a transaction.
			w.loaded = false
			w.got = t.loadShared(w.addr, int(w.addr>>mem.LineShift))
			if (w.got == w.val) != w.eq {
				return true
			}
			if t.tick(costs.Pause) {
				return false
			}
		}
		if w.rounds == 0 {
			return true
		}
		if w.rounds > 0 {
			w.rounds--
		}
		w.loaded = true
		if t.tick(costs.Load) {
			return false
		}
	}
}
