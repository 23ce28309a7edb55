package locks

import (
	"reflect"
	"testing"

	"hle/internal/mem"
	"hle/internal/tsx"
)

func monitorMachine(t *testing.T, n int) *tsx.Machine {
	t.Helper()
	cfg := tsx.DefaultConfig(n)
	cfg.SpuriousPerAccess = 0
	return tsx.NewMachine(cfg)
}

// holder returns the thread holding l non-speculatively per mo, or -1.
func holder(mo *Monitor, l Lock) int {
	if id, ok := mo.holder[l]; ok {
		return id
	}
	return -1
}

// TestMonitorTracksStandardPath: Acquire/Release maintain holder state and
// Cycle stays nil for a single-lock workload.
func TestMonitorTracksStandardPath(t *testing.T) {
	m := monitorMachine(t, 2)
	mo := NewMonitor()
	var l Lock
	m.RunOne(func(th *tsx.Thread) {
		l = Monitored(NewTTAS(th), mo)
		l.Prepare(th)
		l.Acquire(th)
		if inner := (l.(*monitoredLock)).Lock; holder(mo, inner) != th.ID {
			t.Errorf("holder = %d, want %d", holder(mo, inner), th.ID)
		}
		if mo.Cycle() != nil {
			t.Error("cycle reported for a held, uncontended lock")
		}
		l.Release(th)
		if inner := (l.(*monitoredLock)).Lock; holder(mo, inner) != -1 {
			t.Error("holder survives release")
		}
	})
}

// TestMonitorIgnoresElision: an elided critical section registers neither
// a hold nor a wait, while a suppressed (real) re-issue registers both.
func TestMonitorIgnoresElision(t *testing.T) {
	m := monitorMachine(t, 1)
	mo := NewMonitor()
	m.RunOne(func(th *tsx.Thread) {
		raw := NewTTAS(th)
		l := Monitored(raw, mo)
		l.Prepare(th)
		th.HLERegion(func() {
			l.SpecAcquire(th)
			if th.InElision() && holder(mo, raw) != -1 {
				t.Error("elided acquisition registered a hold")
			}
			l.SpecRelease(th)
		})
		if holder(mo, raw) != -1 {
			t.Error("hold left behind after elided region")
		}
	})
}

// TestMonitorCycleDetection: hand-built waits-for graphs, including the
// classic two-thread ABBA deadlock and a chain without a cycle.
func TestMonitorCycleDetection(t *testing.T) {
	m := monitorMachine(t, 1)
	var a, b Lock
	m.RunOne(func(th *tsx.Thread) {
		a, b = NewTTAS(th), NewTTAS(th)
	})
	mo := NewMonitor()

	// Chain: 0 waits on a (held by 1), 1 not waiting — no cycle.
	mo.acquired(1, a)
	mo.wait(0, a)
	if c := mo.Cycle(); c != nil {
		t.Errorf("chain reported as cycle %v", c)
	}

	// ABBA: 0 holds a and waits on b; 1 holds b and waits on a.
	mo.Reset()
	mo.acquired(0, a)
	mo.acquired(1, b)
	mo.wait(0, b)
	mo.wait(1, a)
	if c := mo.Cycle(); !reflect.DeepEqual(c, []int{0, 1}) {
		t.Errorf("cycle = %v, want [0 1]", c)
	}

	// Determinism: repeated calls return the identical cycle.
	if c1, c2 := mo.Cycle(), mo.Cycle(); !reflect.DeepEqual(c1, c2) {
		t.Errorf("cycle not deterministic: %v vs %v", c1, c2)
	}

	mo.Reset()
	if mo.Cycle() != nil {
		t.Error("cycle survives Reset")
	}
}

// TestMonitoredIsInvisibleToSimulation: wrapping locks in a Monitor must
// not change the simulated execution — clocks and results are identical.
func TestMonitoredIsInvisibleToSimulation(t *testing.T) {
	run := func(wrap bool) []uint64 {
		m := monitorMachine(t, 4)
		mo := NewMonitor()
		var l Lock
		var ctr mem.Addr
		m.RunOne(func(th *tsx.Thread) {
			l = NewMCS(th)
			if wrap {
				l = Monitored(l, mo)
			}
			ctr = th.AllocLines(1)
		})
		clocks := make([]uint64, 4)
		m.Run(4, func(th *tsx.Thread) {
			l.Prepare(th)
			for i := 0; i < 30; i++ {
				th.HLERegion(func() {
					l.SpecAcquire(th)
					th.Store(ctr, th.Load(ctr)+1)
					l.SpecRelease(th)
				})
				l.Acquire(th)
				th.Store(ctr, th.Load(ctr)+1)
				l.Release(th)
			}
			clocks[th.ID] = th.Clock()
		})
		return clocks
	}
	plain := run(false)
	wrapped := run(true)
	if !reflect.DeepEqual(plain, wrapped) {
		t.Errorf("monitoring changed the schedule:\nplain:   %v\nwrapped: %v", plain, wrapped)
	}
}
