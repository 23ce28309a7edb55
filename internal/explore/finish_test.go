package explore

import (
	"fmt"
	"testing"

	"hle/internal/mem"
)

// withStopAtEnd runs f with replays stopping at their last outcome, as
// they did before finish-out.
func withStopAtEnd(f func()) {
	testStopAtEnd = func() bool { return true }
	defer func() { testStopAtEnd = nil }()
	f()
}

// unwound reports whether r's last run ended with a stop order unwinding
// a thread that had started, instead of the thread returning. A thread
// stopped before it started is not unwound (sim marks it stopped without
// running its body), and the replay never saw it (r.threads holds nil).
func unwound(r *replayer) bool {
	for _, t := range r.threads {
		if t != nil && t.Stopped() {
			return true
		}
	}
	return false
}

// TestFinishOutEndsReplays: on plain and elided TTAS configurations, the
// replays whose immediate stop unwinds a thread end under finish-out with
// every started thread returning from its body, all but a few of them at
// most.
func TestFinishOutEndsReplays(t *testing.T) {
	for _, cfg := range []Config{
		{Scheme: "Standard", Lock: "TTAS", Threads: 2, Ops: 1},
		{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1},
	} {
		c := cfg.withDefaults()
		e := newExplorer(&c)
		stops, finished := 0, 0
		for _, p := range rigPrefixes(e) {
			var stopped bool
			withStopAtEnd(func() {
				e.replayNode(&node{prefix: p}, nil, 0, nil)
				stopped = unwound(e.rigs.free[len(e.rigs.free)-1])
			})
			if !stopped {
				continue // terminal, or no thread had started
			}
			stops++
			e.replayNode(&node{prefix: p}, nil, 0, nil)
			if !unwound(e.rigs.free[len(e.rigs.free)-1]) {
				finished++
			}
		}
		t.Logf("%s: finish-out ends %d of the %d replays that the immediate stop unwinds", cfg.Label(), finished, stops)
		if stops < 10 {
			t.Fatalf("%s: the immediate stop unwinds only %d replays; the count is vacuous", cfg.Label(), stops)
		}
		if finished*20 < stops*19 {
			t.Errorf("%s: finish-out ends only %d of %d replays", cfg.Label(), finished, stops)
		}
	}
}

// TestFinishOutFallsBack: a tail that cannot finish within the finish-out
// bound falls back to the stop order, and the search's verdict is the one
// the immediate stop gives. MutantCLHBlindRelease's broken lock leaves a
// waiter spinning on a node no one releases, so many of its tails never
// end.
func TestFinishOutFallsBack(t *testing.T) {
	cfg := Mutants()[0]
	got := Run(cfg)
	var want *Result
	withStopAtEnd(func() { want = Run(cfg) })
	if got.Line() != want.Line() {
		t.Errorf("%s: verdict moved:\n  finish-out: %s\n  stop:       %s", cfg.Label(), got.Line(), want.Line())
	}
	if got.Violation == nil || want.Violation == nil {
		t.Fatalf("%s: seeded fault not detected (finish-out %v, stop %v)", cfg.Label(), got.Violation != nil, want.Violation != nil)
	}
	if got.Violation.Kind != want.Violation.Kind ||
		FormatSchedule(got.Violation.Schedule) != FormatSchedule(want.Violation.Schedule) {
		t.Errorf("%s: counterexample moved", cfg.Label())
	}

	c := cfg.withDefaults()
	e := newExplorer(&c)
	fallbacks := 0
	for _, p := range append(rigPrefixes(e), got.Violation.Schedule) {
		e.replayNode(&node{prefix: p}, nil, 0, nil)
		r := e.rigs.free[len(e.rigs.free)-1]
		if r.finishing && unwound(r) {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Errorf("%s: no replay fell back to the stop order", cfg.Label())
	}
}

// TestFingerprintLanes: the four-lane fingerprint moves when any one word
// in use changes, whichever lane it lands in, the words past the last
// full group of four included, when any line's Readers or Writers mask
// changes, and when any of a thread's fixed-size fields changes; equal
// states hash equal.
func TestFingerprintLanes(t *testing.T) {
	cfg := Config{Scheme: "HLE-SCM", Lock: "MCS", Threads: 2, Ops: 1}
	c := cfg.withDefaults()
	e := newExplorer(&c)
	prefixes := rigPrefixes(e)
	prefix := prefixes[len(prefixes)-1]
	build := func() *replayer {
		r := e.newReplayer(e.tmpl, prefix)
		r.run()
		// Leave three words past the last full group of four, in lanes 0-2.
		for r.m.Mem.WordsInUse()%4 != 3 {
			r.m.Mem.Alloc(1)
		}
		return r
	}
	r := build()
	for i, th := range r.threads {
		if th == nil {
			t.Fatalf("thread %d never started; the thread fields go unchecked", i)
		}
	}
	base := r.fingerprint()
	if other := build().fingerprint(); other != base {
		t.Fatalf("equal states hash %x and %x", base, other)
	}

	// moved checks that the state as changed hashes unlike the base state
	// and unlike every other single change.
	seen := map[uint64]string{base: "the unchanged state"}
	moved := func(what string) {
		t.Helper()
		fp := r.fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("changing %s hashes like %s", what, prev)
		}
		seen[fp] = "changing " + what
	}
	flip := func(what string, v *uint64) {
		t.Helper()
		*v ^= 1
		moved(what)
		*v ^= 1
	}
	mm := r.m.Mem
	words := mm.WordsInUse()
	for a := mem.Addr(0); a < mem.Addr(words); a++ {
		v := mm.Read(a)
		mm.Write(a, v^1)
		moved(fmt.Sprintf("word %d", a))
		mm.Write(a, v)
	}
	for l := 0; l < (words+mem.LineWords-1)/mem.LineWords; l++ {
		lm := mm.LineByIndex(l)
		flip(fmt.Sprintf("line %d's readers", l), &lm.Readers)
		flip(fmt.Sprintf("line %d's writers", l), &lm.Writers)
	}
	for i, th := range r.threads {
		st := &th.Stats
		flip(fmt.Sprintf("thread %d's begun count", i), &st.Begun)
		flip(fmt.Sprintf("thread %d's commit count", i), &st.Committed)
		for k := range st.Aborted {
			flip(fmt.Sprintf("thread %d's abort count %d", i, k), &st.Aborted[k])
		}
		flip(fmt.Sprintf("thread %d's committed read lines", i), &st.CommittedReadLines)
		flip(fmt.Sprintf("thread %d's committed write lines", i), &st.CommittedWriteLines)
		flip(fmt.Sprintf("thread %d's committed accesses", i), &st.CommittedAccesses)
		flip(fmt.Sprintf("thread %d's ticket", i), &r.seqScratch[i])
		flip(fmt.Sprintf("thread %d's result", i), &r.resScratch[i])
		r.incon[i] = !r.incon[i]
		moved(fmt.Sprintf("thread %d's snapshot flag", i))
		r.incon[i] = !r.incon[i]
		r.opsDone[i]++
		moved(fmt.Sprintf("thread %d's operation count", i))
		r.opsDone[i]--
	}
	if got := r.fingerprint(); got != base {
		t.Errorf("restored state hashes %x, want %x", got, base)
	}
}
