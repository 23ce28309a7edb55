package tsx

import (
	"testing"

	"hle/internal/mem"
)

// grantCounter is an Observer that counts scheduler grants.
type grantCounter struct{ grants int }

func (g *grantCounter) BindMachine(*Machine)                                     {}
func (g *grantCounter) TxBegin(int, uint64)                                      {}
func (g *grantCounter) TxCommit(int, uint64, uint64, int)                        {}
func (g *grantCounter) TxAbort(int, uint64, uint64, Cause, int, int, bool, bool) {}
func (g *grantCounter) Serial(int, uint64, bool)                                 {}
func (g *grantCounter) Grant(int, uint64)                                        { g.grants++ }

// reuseFixture is a checkpointed counter and a contended RTM workload on
// it whose grant slices an injector skews, so the runs below consult the
// scheduler's random draws, both grant hooks and the per-thread RNG.
func reuseFixture() (*Checkpoint, mem.Addr, func(th *Thread)) {
	m := newTestMachine(4, 5)
	var ctr mem.Addr
	m.RunOne(func(th *Thread) { ctr = th.AllocLines(1) })
	return m.Checkpoint(), ctr, func(th *Thread) {
		for i := 0; i < 30; i++ {
			for {
				ok, _ := th.RTM(func() {
					v := th.Load(ctr)
					th.Work(uint64(th.Rand().Intn(8)))
					th.Store(ctr, v+1)
				})
				if ok {
					break
				}
			}
		}
	}
}

// skew is an injector that doubles proc 0's grant slices.
var skew = &testInjector{grant: func(id int, _, slice uint64) uint64 {
	if id == 0 {
		return 2 * slice
	}
	return slice
}}

func hookUp(m *Machine, obs *grantCounter) {
	m.SetObserver(obs)
	m.SetInjector(skew)
}

// TestReusedRunMatchesFresh: a machine reset to a checkpoint and run again
// on its reused scheduler and thread table — with thread counts that grow
// and shrink between runs — reports exactly what a fresh fork running the
// same workload reports: every thread's clock, statistics and stopped
// flag, the grants its observer saw, and the final counter.
func TestReusedRunMatchesFresh(t *testing.T) {
	cp, ctr, body := reuseFixture()
	reused := FromCheckpoint(cp)
	for _, n := range []int{4, 2, 3, 4, 1} {
		reused.Reset(cp)
		var ro, fo grantCounter
		hookUp(reused, &ro)
		got := reused.Run(n, body)
		fresh := FromCheckpoint(cp)
		hookUp(fresh, &fo)
		want := fresh.Run(n, body)
		if len(got) != n || len(want) != n {
			t.Fatalf("%d threads: runs returned %d and %d threads", n, len(got), len(want))
		}
		for i := range want {
			if got[i].Clock() != want[i].Clock() || got[i].Stats != want[i].Stats || got[i].Stopped() != want[i].Stopped() {
				t.Errorf("%d threads: thread %d clock %d stats %+v on the reused machine, clock %d stats %+v fresh",
					n, i, got[i].Clock(), got[i].Stats, want[i].Clock(), want[i].Stats)
			}
		}
		if ro.grants != fo.grants {
			t.Errorf("%d threads: %d grants observed on the reused machine, %d fresh", n, ro.grants, fo.grants)
		}
		if a, b := reused.Mem.Read(ctr), fresh.Mem.Read(ctr); a != b || a != uint64(30*n) {
			t.Errorf("%d threads: counter %d on the reused machine, %d fresh, want %d", n, a, b, 30*n)
		}
	}
}

// TestWarmRunAllocatesNothing: once a machine has run a workload, resetting
// it and running the workload again allocates nothing, grant hooks
// installed and all.
func TestWarmRunAllocatesNothing(t *testing.T) {
	cp, _, body := reuseFixture()
	m := FromCheckpoint(cp)
	var obs grantCounter
	run := func() {
		m.Reset(cp)
		hookUp(m, &obs)
		m.Run(4, body)
	}
	run()
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("warm Reset and Run allocate %.0f objects, want 0", got)
	}
}

// TestModesResetEveryRun: a thread's elision modes (subscription and
// nested elision) are set by the scheme whose Setup runs on it and must
// not outlive the Run: the next Run on the same machine starts every
// thread eager with nesting off, as does a fork that recycles the
// machine.
func TestModesResetEveryRun(t *testing.T) {
	m := newTestMachine(2, 1)
	set := func(th *Thread) {
		th.SetSubscription(SubLazyNaive)
		th.SetNestedElision(true)
	}
	check := func(th *Thread) {
		if th.sub != SubEager || th.nest {
			t.Errorf("thread %d starts a Run with subscription %v, nesting %v; want eager, off", th.ID, th.sub, th.nest)
		}
	}
	m.Run(2, set)
	m.Run(2, check)
	m.Run(2, set)
	cp := m.Checkpoint()
	m.Release()
	f := FromCheckpoint(cp)
	f.Run(2, check)
	f.Release()
}

// TestRunInsideRunPanics: the machine's scheduler and thread table are
// reused, so a body may not start a Run on its own machine.
func TestRunInsideRunPanics(t *testing.T) {
	m := newTestMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Run did not panic")
		}
	}()
	m.RunOne(func(*Thread) { m.RunOne(func(*Thread) {}) })
}

// TestFillRunsOutsideSimulatedTime: a fill's thread charges no cycles,
// and a fill refuses the hooks that only timed runs may carry.
func TestFillRunsOutsideSimulatedTime(t *testing.T) {
	m := newTestMachine(1, 1)
	m.Fill(func(th *Thread) {
		th.Store(th.Alloc(4), 1)
		th.Work(100)
	})
	if c := m.threads[0].Clock(); c != 0 {
		t.Fatalf("fill thread's clock = %d, want 0", c)
	}
	for name, install := range map[string]func(*Machine){
		"observer": func(m *Machine) { m.SetObserver(&grantCounter{}) },
		"injector": func(m *Machine) { m.SetInjector(&testInjector{}) },
		"watchdog": func(m *Machine) { m.SetWatchdog(func(uint64) bool { return false }) },
	} {
		m := newTestMachine(1, 1)
		install(m)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill with the %s installed did not panic", name)
				}
			}()
			m.Fill(func(*Thread) {})
		}()
	}
}
