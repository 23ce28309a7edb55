package harness

import (
	"reflect"
	"strings"
	"testing"

	"hle/internal/locks"
	"hle/internal/tsx"
)

// wdMachine builds a small deterministic machine with a trace ring.
func wdMachine(seed int64, ring int) *tsx.Machine {
	cfg := tsx.DefaultConfig(2)
	cfg.Seed = seed
	cfg.SpuriousPerAccess = 0
	cfg.TraceRing = ring
	return tsx.NewMachine(cfg)
}

// deadlockOnce drives a classic ABBA deadlock under a monitored lock pair
// and returns the watchdog and the stopped machine's threads.
func deadlockOnce(t *testing.T, seed int64) (*Watchdog, *tsx.Machine, []*tsx.Thread) {
	t.Helper()
	m := wdMachine(seed, 32)
	mo := locks.NewMonitor()
	var a, b locks.Lock
	m.RunOne(func(th *tsx.Thread) {
		a = locks.Monitored(locks.NewTTAS(th), mo)
		b = locks.Monitored(locks.NewTTAS(th), mo)
	})
	wd := NewWatchdog(WatchdogConfig{
		Monitor:    mo,
		CheckEvery: 1,
		Context:    "ABBA test",
	}, 2)
	m.SetWatchdog(wd.Check)
	defer m.SetWatchdog(nil)
	threads := m.Run(2, func(th *tsx.Thread) {
		a.Prepare(th)
		b.Prepare(th)
		first, second := a, b
		if th.ID == 1 {
			first, second = b, a
		}
		first.Acquire(th)
		th.Work(100)
		second.Acquire(th) // ABBA: guaranteed deadlock
		second.Release(th)
		first.Release(th)
	})
	return wd, m, threads
}

// TestWatchdogDetectsDeadlock: the ABBA pattern trips the deadlock
// detector and yields a structured failure instead of hanging.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	wd, m, threads := deadlockOnce(t, 5)
	tripped, reason := wd.Tripped()
	if !tripped || reason != ReasonDeadlock {
		t.Fatalf("tripped=%v reason=%q, want deadlock", tripped, reason)
	}
	if !m.Stopped() {
		t.Fatal("machine not stopped")
	}
	f := wd.Failure(m, threads)
	if !reflect.DeepEqual(f.Cycle, []int{0, 1}) {
		t.Errorf("cycle = %v, want [0 1]", f.Cycle)
	}
	if len(f.Threads) != 2 {
		t.Errorf("thread states = %d, want 2", len(f.Threads))
	}
	if f.Error() == "" || !strings.Contains(f.Dump(), "ABBA test") {
		t.Error("dump missing context")
	}
	if !strings.Contains(f.Dump(), "engine events") {
		t.Error("dump missing trace-ring tail")
	}
}

// TestFailureDumpDeterministic: equal seeds produce byte-identical dumps.
func TestFailureDumpDeterministic(t *testing.T) {
	dump := func() string {
		wd, m, threads := deadlockOnce(t, 5)
		return wd.Failure(m, threads).Dump()
	}
	if d1, d2 := dump(), dump(); d1 != d2 {
		t.Errorf("dumps differ:\n%s\n---\n%s", d1, d2)
	}
}

// TestArmedWatchdogIsInvisible: a run with a watchdog armed (but never
// tripping), monitored locks, and a trace ring must produce a Result
// byte-identical to a bare run — the robustness layer is zero-cost when it
// does not fire.
func TestArmedWatchdogIsInvisible(t *testing.T) {
	run := func(armed bool) Result {
		mcfg := tsx.DefaultConfig(4)
		mcfg.Seed = 17
		cfg := Config{Threads: 4, CycleBudget: 120_000}
		spec := SchemeSpec{Scheme: "HLE-SCM", Lock: "TTAS"}
		if armed {
			mcfg.TraceRing = 128
			mo := locks.NewMonitor()
			spec.Monitor = mo
			cfg.Watchdog = &WatchdogConfig{
				LivelockWindow:   1 << 40,
				StarvationWindow: 1 << 40,
				Monitor:          mo,
				Context:          "inert",
			}
		}
		return PointSpec{
			Warm: &WarmTemplate{Machine: mcfg, MkWorkload: func(th *tsx.Thread) Workload {
				return NewRBTree(th, 64, MixExtensive)
			}},
			Scheme: spec,
			Cfg:    cfg,
		}.Run()
	}
	plain := run(false)
	armed := run(true)
	if armed.Failure != nil {
		t.Fatalf("inert watchdog tripped: %v", armed.Failure)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("armed run differs from plain run:\nplain: %+v\narmed: %+v", plain, armed)
	}
}
