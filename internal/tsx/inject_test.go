package tsx

import (
	"reflect"
	"sync"
	"testing"

	"hle/internal/mem"
)

// testInjector is a scriptable Injector for unit tests.
type testInjector struct {
	access   func(id int, clock uint64, line int, write, inTx bool) (uint64, bool)
	writeCap func(id int, clock uint64, limit int) int
	grant    func(id int, clock, slice uint64) uint64

	accesses int
}

func (i *testInjector) Access(id int, clock uint64, line int, write, inTx bool) (uint64, bool) {
	i.accesses++
	if i.access == nil {
		return 0, false
	}
	return i.access(id, clock, line, write, inTx)
}

func (i *testInjector) WriteCap(id int, clock uint64, limit int) int {
	if i.writeCap == nil {
		return limit
	}
	return i.writeCap(id, clock, limit)
}

func (i *testInjector) Grant(id int, clock, slice uint64) uint64 {
	if i.grant == nil {
		return slice
	}
	return i.grant(id, clock, slice)
}

// contendedRun exercises a small shared counter from n threads under RTM
// with a CAS fallback, returning the final counter value and thread stats.
func contendedRun(m *Machine, n, incs int) (uint64, []Stats) {
	var ctr mem.Addr
	m.RunOne(func(th *Thread) { ctr = th.AllocLines(1) })
	threads := m.Run(n, func(th *Thread) {
		for i := 0; i < incs; i++ {
			ok, _ := th.RTM(func() {
				th.Store(ctr, th.Load(ctr)+1)
			})
			if !ok {
				for {
					old := th.Load(ctr)
					if th.CAS(ctr, old, old+1) {
						break
					}
					th.Pause()
				}
			}
		}
	})
	stats := make([]Stats, n)
	var v uint64
	m.RunOne(func(th *Thread) { v = th.Load(ctr) })
	for i, th := range threads {
		stats[i] = th.Stats
	}
	return v, stats
}

// TestNoopInjectorIsInvisible: installing an injector that injects nothing
// must leave the run byte-identical to a run with no injector at all.
func TestNoopInjectorIsInvisible(t *testing.T) {
	run := func(inj Injector) (uint64, []Stats) {
		m := newTestMachine(4, 7)
		m.SetInjector(inj)
		return contendedRun(m, 4, 50)
	}
	vPlain, sPlain := run(nil)
	vNoop, sNoop := run(&testInjector{})
	if vPlain != vNoop {
		t.Errorf("final value differs: %d vs %d", vPlain, vNoop)
	}
	if !reflect.DeepEqual(sPlain, sNoop) {
		t.Errorf("stats differ:\nplain: %+v\nnoop:  %+v", sPlain, sNoop)
	}
	if vPlain != 200 {
		t.Errorf("final counter = %d, want 200", vPlain)
	}
}

// TestInjectedAbortIsSpurious: an injected abort surfaces as CauseSpurious
// and rolls the transaction back completely.
func TestInjectedAbortIsSpurious(t *testing.T) {
	m := newTestMachine(1, 1)
	fired := false
	m.SetInjector(&testInjector{access: func(id int, clock uint64, line int, write, inTx bool) (uint64, bool) {
		if inTx && write && !fired {
			fired = true
			return 0, true
		}
		return 0, false
	}})
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		fired = false // Alloc's zeroing stores run non-transactionally here
		ok, st := th.RTM(func() {
			th.Store(a, 99)
		})
		if ok {
			t.Fatal("transaction committed despite injected abort")
		}
		if st.Cause != CauseSpurious {
			t.Errorf("cause = %v, want spurious", st.Cause)
		}
		if th.Load(a) != 0 {
			t.Error("injected abort did not roll back")
		}
	})
}

// TestInjectedStallAdvancesClock: a stall advances the thread's virtual
// clock by exactly the injected amount (no jitter).
func TestInjectedStallAdvancesClock(t *testing.T) {
	run := func(stall uint64) uint64 {
		cfg := DefaultConfig(1)
		cfg.SpuriousPerAccess = 0
		cfg.CostJitter = -1
		m := NewMachine(cfg)
		armed := false
		m.SetInjector(&testInjector{access: func(id int, clock uint64, line int, write, inTx bool) (uint64, bool) {
			if armed {
				armed = false
				return stall, false
			}
			return 0, false
		}})
		var clock uint64
		m.RunOne(func(th *Thread) {
			a := th.AllocLines(1)
			armed = true
			th.Load(a)
			clock = th.Clock()
		})
		return clock
	}
	base := run(0)
	stalled := run(1000)
	if stalled != base+1000 {
		t.Errorf("stalled clock = %d, want %d + 1000", stalled, base)
	}
}

// TestWriteCapSqueeze: a squeezed write-set limit converts a small
// transaction into a capacity-write abort.
func TestWriteCapSqueeze(t *testing.T) {
	m := newTestMachine(1, 1)
	squeeze := false
	m.SetInjector(&testInjector{writeCap: func(id int, clock uint64, limit int) int {
		if squeeze {
			return 2
		}
		return limit
	}})
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		b := th.AllocLines(1)
		c := th.AllocLines(1)
		squeeze = true
		ok, st := th.RTM(func() {
			th.Store(a, 1)
			th.Store(b, 2)
			th.Store(c, 3) // third distinct line: over the squeezed limit
		})
		squeeze = false
		if ok {
			t.Fatal("transaction committed despite capacity squeeze")
		}
		if st.Cause != CauseCapacityWrite {
			t.Errorf("cause = %v, want capacity-write", st.Cause)
		}
		if st.MayRetry {
			t.Error("capacity abort should clear MayRetry")
		}
	})
}

// TestTraceRingRecordsLifecycle: the ring captures begin/commit/abort with
// clocks, oldest-first, and TraceEvents returns nil when disabled.
func TestTraceRingRecordsLifecycle(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Seed = 1
	cfg.SpuriousPerAccess = 0
	cfg.TraceRing = 128
	m := NewMachine(cfg)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		th.RTM(func() { th.Store(a, 1) })
		th.RTM(func() { th.Abort(1) })
	})
	evs := m.TraceEvents()
	if len(evs) == 0 {
		t.Fatal("empty trace ring")
	}
	var seq []string
	for _, ev := range evs {
		switch ev.Kind.String() {
		case "begin", "commit", "abort":
			seq = append(seq, ev.Kind.String())
		}
	}
	want := []string{"begin", "commit", "begin", "abort"}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("lifecycle sequence = %v, want %v", seq, want)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Clock < evs[i-1].Clock {
			t.Fatalf("ring not oldest-first at %d: %d after %d", i, evs[i].Clock, evs[i-1].Clock)
		}
	}

	if m2 := newTestMachine(1, 1); m2.TraceEvents() != nil {
		t.Error("TraceEvents non-nil with ring disabled")
	}
}

// TestTraceRingBoundedAndDeterministic: the ring never exceeds its
// configured size, and equal seeds give byte-identical event sequences.
func TestTraceRingBoundedAndDeterministic(t *testing.T) {
	run := func() []TraceEvent {
		cfg := DefaultConfig(4)
		cfg.Seed = 42
		cfg.TraceRing = 64
		m := NewMachine(cfg)
		contendedRun(m, 4, 50)
		return m.TraceEvents()
	}
	a, b := run(), run()
	if len(a) != 64 {
		t.Errorf("ring length = %d, want 64 (wrapped)", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds produced different trace rings")
	}
}

// TestCloneGetsFreshRingAndNoInjector: a clone must not share its parent's
// ring, must start with an empty one, and must drop the injector — the
// parent runs under an injector that aborts every transactional access,
// and the clone's transaction commits.
func TestCloneGetsFreshRingAndNoInjector(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Seed = 3
	cfg.SpuriousPerAccess = 0
	cfg.TraceRing = 32
	m := NewMachine(cfg)
	m.SetInjector(&testInjector{access: func(int, uint64, int, bool, bool) (uint64, bool) { return 0, true }})
	var a mem.Addr
	var parentOK bool
	m.RunOne(func(th *Thread) {
		a = th.AllocLines(1)
		parentOK, _ = th.RTM(func() { th.Store(a, 1) })
	})
	if parentOK {
		t.Fatal("parent RTM committed under an abort-every-access injector")
	}
	c := m.Clone()
	if got := c.TraceEvents(); len(got) != 0 {
		t.Errorf("clone ring has %d events, want 0", len(got))
	}
	if len(m.TraceEvents()) == 0 {
		t.Error("parent ring lost its events")
	}
	var cloneOK bool
	c.RunOne(func(th *Thread) {
		cloneOK, _ = th.RTM(func() { th.Store(a, 1) })
	})
	if !cloneOK {
		t.Error("clone RTM aborted: the clone kept the parent's injector")
	}
	if len(c.TraceEvents()) == 0 {
		t.Error("clone ring not recording")
	}
}

// TestWatchdogStopsMachine: a watchdog trip unwinds spinning threads,
// Machine.Stopped reports true, and the ring remains readable.
func TestWatchdogStopsMachine(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Seed = 5
	cfg.SpuriousPerAccess = 0
	cfg.TraceRing = 32
	m := NewMachine(cfg)
	var lock mem.Addr
	m.RunOne(func(th *Thread) { lock = th.AllocLines(1) })
	if m.Stopped() {
		t.Fatal("Stopped true before any watchdog run")
	}
	m.SetWatchdog(func(minClock uint64) bool { return minClock > 50_000 })
	threads := m.Run(2, func(th *Thread) {
		for { // both threads spin on a "lock" that is never released
			if th.CAS(lock, 0, uint64(th.ID)+1) {
				// Neither thread ever stores 0 back, so thread 2 spins
				// forever and thread 1 spins on the loop below.
				for {
					th.Pause()
				}
			}
			th.Pause()
		}
	})
	if !m.Stopped() {
		t.Fatal("machine not marked stopped")
	}
	for _, th := range threads {
		if !th.Stopped() {
			t.Errorf("thread %d not stopped", th.ID)
		}
	}
	if len(m.TraceEvents()) == 0 {
		t.Error("no trace events recorded before the stop")
	}

	// A later fault-free run on a fresh machine must clear nothing it
	// shouldn't: Stopped is per-Run state.
	m.SetWatchdog(nil)
	m2 := newTestMachine(1, 1)
	m2.RunOne(func(th *Thread) { th.Work(1) })
	if m2.Stopped() {
		t.Error("fresh machine reports stopped")
	}
}

// TestTraceRingsIndependentAcrossMachines: machines running concurrently on
// host goroutines (the harness pool pattern) each record to their own ring.
// Run under -race this also proves the dump path is data-race free.
func TestTraceRingsIndependentAcrossMachines(t *testing.T) {
	const workers = 4
	rings := make([][]TraceEvent, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := DefaultConfig(2)
			cfg.Seed = 9 // same seed: rings must come out identical
			cfg.TraceRing = 64
			m := NewMachine(cfg)
			contendedRun(m, 2, 40)
			rings[w] = m.TraceEvents()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(rings[0], rings[w]) {
			t.Fatalf("worker %d ring differs from worker 0", w)
		}
	}
}
