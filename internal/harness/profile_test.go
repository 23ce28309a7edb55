package harness_test

import (
	"testing"

	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/sim"
	"hle/internal/tsx"
)

// conflictRun is a measured run in which every thread increments one
// shared counter transactionally, so threads abort each other. With
// stall set, no thread ever reports progress and the watchdog stops the
// run mid-flight.
func conflictRun(cell mem.Addr, wd *harness.Watchdog, stall bool) func(t *tsx.Thread) {
	return func(t *tsx.Thread) {
		for i := 0; stall || i < 200; i++ {
			t.RTM(func() {
				v := t.Load(cell)
				t.Work(40)
				t.Store(cell, v+1)
			})
			if !stall {
				wd.NoteOp(t.ID, t.Clock())
			}
		}
		wd.NoteDone(t.ID)
	}
}

// profiledConflict builds a machine and its counter in an unmeasured
// construction run, then runs conflictRun under a profiler built from opt.
// It returns the profile, the run's threads, the scheduler grants of the
// measured run alone and the observer left on the machine afterwards.
func profiledConflict(t *testing.T, opt *obs.Options, stall bool) (*obs.Profile, []*tsx.Thread, uint64, tsx.Observer) {
	t.Helper()
	cfg := machineCfg(4, 9)
	cfg.SpuriousPerAccess = 0
	m := tsx.NewMachine(cfg)
	var cell mem.Addr
	m.RunOne(func(th *tsx.Thread) { cell = th.AllocLines(1) })
	wd := harness.NewWatchdog(harness.WatchdogConfig{LivelockWindow: 20_000, StarvationWindow: 1 << 40}, 4)
	m.SetWatchdog(wd.Check)
	defer m.SetWatchdog(nil)
	pr := harness.NewProfiler(opt, "conflict")
	before := sim.Grants()
	threads := pr.Run(m, 4, conflictRun(cell, wd, stall))
	grants := sim.Grants() - before
	if m.Stopped() != stall {
		t.Fatalf("stall=%v but machine stopped=%v", stall, m.Stopped())
	}
	return pr.Profile(), threads, grants, m.Observer()
}

// TestProfilerOff: without options the profiler is nil, installs no
// observer, collects nothing and allocates nothing.
func TestProfilerOff(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if harness.NewProfiler(nil, "off").Profile() != nil {
			t.Fatal("nil options produced a profile")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled profiler allocates %.1f times", allocs)
	}
	p, _, _, o := profiledConflict(t, nil, false)
	if p != nil || o != nil {
		t.Fatalf("disabled profiler left a profile (%v) or a %T observer", p != nil, o)
	}
}

// TestProfilerScope: the collector sees the measured run alone and is
// removed after it, also when the watchdog stopped the run. Its window
// grants are exactly the measured run's, not the construction run's, and
// its engine stamp is the run's own tsx.Stats abort total, so the
// attribution invariant holds on a stopped run too.
func TestProfilerScope(t *testing.T) {
	for _, stall := range []bool{false, true} {
		p, threads, grants, o := profiledConflict(t, &obs.Options{WindowCycles: 5_000}, stall)
		if o != nil {
			t.Errorf("stall=%v: a %T observer is still installed after the run", stall, o)
		}
		var windowGrants uint64
		for _, w := range p.Timeline {
			windowGrants += w.Grants
		}
		if windowGrants != grants {
			t.Errorf("stall=%v: window grants %d, measured run had %d", stall, windowGrants, grants)
		}
		var st tsx.Stats
		for _, th := range threads {
			if th != nil {
				st.Add(th.Stats)
			}
		}
		if st.TotalAborts() == 0 {
			t.Fatalf("stall=%v: run recorded no aborts; nothing to attribute", stall)
		}
		if p.EngineAborts != st.TotalAborts() {
			t.Errorf("stall=%v: engine aborts %d, run's stats %d", stall, p.EngineAborts, st.TotalAborts())
		}
		if p.CauseSum() != p.TotalAborts || p.TotalAborts != p.EngineAborts {
			t.Errorf("stall=%v: attribution broken: causes %d, observed %d, engine %d",
				stall, p.CauseSum(), p.TotalAborts, p.EngineAborts)
		}
		if p.Label != "conflict" {
			t.Errorf("stall=%v: label %q", stall, p.Label)
		}
	}
}
