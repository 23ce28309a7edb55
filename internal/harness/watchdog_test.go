package harness

import (
	"fmt"
	"math/rand"
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

// scanWatchdog is the liveness check without the expiry cache: a full
// scan of every thread's last operation on every grant, as Check did
// before it cached its earliest expiry. It is the oracle the cached Check
// must match grant for grant.
type scanWatchdog struct {
	cfg    WatchdogConfig
	n      int
	lastOp [locks.MaxThreads]uint64
	done   [locks.MaxThreads]bool
	ndone  int
	checks int

	tripped bool
	reason  string
	victim  int
	cycle   []int
	clock   uint64
}

func newScanWatchdog(cfg WatchdogConfig, n int) *scanWatchdog {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 64
	}
	return &scanWatchdog{cfg: cfg, n: n, victim: -1}
}

func (s *scanWatchdog) NoteOp(id int, clock uint64) { s.lastOp[id] = clock }

func (s *scanWatchdog) NoteDone(id int) {
	if !s.done[id] {
		s.done[id] = true
		s.ndone++
	}
}

func (s *scanWatchdog) trip(reason string, victim int, cycle []int, clock uint64) bool {
	s.tripped, s.reason, s.victim, s.cycle, s.clock = true, reason, victim, cycle, clock
	return true
}

func (s *scanWatchdog) Check(minClock uint64) bool {
	if s.tripped {
		return true
	}
	if s.ndone >= s.n {
		return false
	}
	s.checks++
	if mo := s.cfg.Monitor; mo != nil && s.checks%s.cfg.CheckEvery == 0 {
		if cyc := mo.Cycle(); cyc != nil {
			return s.trip(ReasonDeadlock, -1, cyc, minClock)
		}
	}
	var lastAny uint64
	for id := 0; id < s.n; id++ {
		lastAny = max(lastAny, s.lastOp[id])
	}
	if w := s.cfg.StarvationWindow; w > 0 {
		for id := 0; id < s.n; id++ {
			if !s.done[id] && s.lastOp[id]+w <= minClock && lastAny > s.lastOp[id] {
				return s.trip(ReasonStarvation, id, nil, minClock)
			}
		}
	}
	if w := s.cfg.LivelockWindow; w > 0 && lastAny+w <= minClock {
		return s.trip(ReasonLivelock, -1, nil, minClock)
	}
	return false
}

// sameTrip reports where the cached watchdog and the oracle disagree on
// the trip state (empty when they agree).
func sameTrip(wd *Watchdog, s *scanWatchdog) string {
	if wd.tripped != s.tripped || wd.reason != s.reason || wd.victim != s.victim ||
		wd.tripClock != s.clock || wd.checks != s.checks || !reflect.DeepEqual(wd.cycle, s.cycle) {
		return fmt.Sprintf("cached: tripped=%v %q victim=%d clock=%d checks=%d cycle=%v; scan: tripped=%v %q victim=%d clock=%d checks=%d cycle=%v",
			wd.tripped, wd.reason, wd.victim, wd.tripClock, wd.checks, wd.cycle,
			s.tripped, s.reason, s.victim, s.clock, s.checks, s.cycle)
	}
	return ""
}

// TestWatchdogMatchesFullScan: the cached Check trips at the same grant,
// for the same reason, victim and clock, as a full scan on every grant,
// over randomized progress histories — including the starvation case
// where a thread's window expires while nobody progresses (no trip) and
// trips only once another thread does.
func TestWatchdogMatchesFullScan(t *testing.T) {
	// The late-starvation case, spelled out: thread 0's window expires at
	// cycle 100 with no one ahead of it, so nothing trips until thread 1
	// completes an operation at 510.
	cfg := WatchdogConfig{StarvationWindow: 100}
	wd, ref := NewWatchdog(cfg, 2), newScanWatchdog(cfg, 2)
	for clock := uint64(0); clock <= 600; clock += 10 {
		if clock == 510 {
			wd.NoteOp(1, clock)
			ref.NoteOp(1, clock)
		}
		if a, b := wd.Check(clock), ref.Check(clock); a != b {
			t.Fatalf("late starvation: at clock %d cached=%v scan=%v", clock, a, b)
		}
	}
	if d := sameTrip(wd, ref); d != "" || wd.reason != ReasonStarvation || wd.victim != 0 || wd.tripClock != 510 {
		t.Fatalf("late starvation: reason %q victim %d clock %d, want starvation of 0 at 510 %s",
			wd.reason, wd.victim, wd.tripClock, d)
	}

	rng := rand.New(rand.NewSource(1))
	trips := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		window := func(scale int) uint64 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return uint64(1 + rng.Intn(scale))
		}
		cfg := WatchdogConfig{StarvationWindow: window(400), LivelockWindow: window(800)}
		wd, ref := NewWatchdog(cfg, n), newScanWatchdog(cfg, n)
		var clock uint64
		for grant := 0; grant < 3000 && !ref.tripped; grant++ {
			clock += uint64(rng.Intn(12))
			switch r := rng.Intn(100); {
			case r < 8:
				id, at := rng.Intn(n), clock+uint64(rng.Intn(20))
				wd.NoteOp(id, at)
				ref.NoteOp(id, at)
			case r < 9:
				id := rng.Intn(n)
				wd.NoteDone(id)
				ref.NoteDone(id)
			}
			if a, b := wd.Check(clock), ref.Check(clock); a != b {
				t.Fatalf("trial %d grant %d clock %d: cached=%v scan=%v", trial, grant, clock, a, b)
			}
			if d := sameTrip(wd, ref); d != "" {
				t.Fatalf("trial %d grant %d: %s", trial, grant, d)
			}
		}
		trips[ref.reason]++
	}
	if trips[ReasonStarvation] == 0 || trips[ReasonLivelock] == 0 || trips[""] == 0 {
		t.Errorf("randomized histories did not cover every outcome: %v", trips)
	}

	// A waits-for cycle: the deadlock walk's cadence is unchanged, so
	// both trip on the same grant.
	m := wdMachine(5, 0)
	mo := locks.NewMonitor()
	var a, b locks.Lock
	m.RunOne(func(th *tsx.Thread) {
		a = locks.Monitored(locks.NewTTAS(th), mo)
		b = locks.Monitored(locks.NewTTAS(th), mo)
	})
	dcfg := WatchdogConfig{Monitor: mo, CheckEvery: 7, StarvationWindow: 1 << 20, LivelockWindow: 1 << 21}
	dwd, dref := NewWatchdog(dcfg, 2), newScanWatchdog(dcfg, 2)
	m.SetWatchdog(func(minClock uint64) bool {
		x, y := dwd.Check(minClock), dref.Check(minClock)
		if x != y {
			t.Errorf("deadlock run at clock %d: cached=%v scan=%v", minClock, x, y)
		}
		return x || y
	})
	defer m.SetWatchdog(nil)
	m.Run(2, func(th *tsx.Thread) {
		a.Prepare(th)
		b.Prepare(th)
		first, second := a, b
		if th.ID == 1 {
			first, second = b, a
		}
		first.Acquire(th)
		dwd.NoteOp(th.ID, th.Clock())
		dref.NoteOp(th.ID, th.Clock())
		th.Work(100)
		second.Acquire(th)
	})
	if d := sameTrip(dwd, dref); d != "" || dwd.reason != ReasonDeadlock {
		t.Errorf("deadlock run: reason %q %s", dwd.reason, d)
	}
}
