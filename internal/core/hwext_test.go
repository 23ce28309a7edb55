package core_test

import (
	"testing"

	"hle/internal/core"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// The Chapter 7 extension's claims, on HLE-HWExt (core.NewHLEHWExt),
// whose Setup selects the extension on each thread: the machine is the
// same plain one plain HLE runs on.

// TestSerializableUnderExtension: correctness is preserved — concurrent
// increments through HLE-HWExt lose no updates.
func TestSerializableUnderExtension(t *testing.T) {
	m := newMachine(6, 3)
	var s core.Scheme
	var ctr mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		s = core.NewHLEHWExt(locks.NewTTAS(th))
		ctr = th.AllocLines(1)
	})
	const perThread = 150
	m.Run(6, func(th *tsx.Thread) {
		s.Setup(th)
		for i := 0; i < perThread; i++ {
			s.Run(th, func() {
				v := th.Load(ctr)
				th.Work(3)
				th.Store(ctr, v+1)
			})
		}
	})
	var got uint64
	m.RunOne(func(th *tsx.Thread) { got = th.Load(ctr) })
	if got != 6*perThread {
		t.Fatalf("counter = %d, want %d", got, 6*perThread)
	}
}

// TestSurvivesLockAcquisition is the chapter's headline behaviour: a
// speculative thread whose data does not conflict with a non-speculative
// lock holder completes speculatively, instead of being aborted by the
// lock-line conflict.
func TestSurvivesLockAcquisition(t *testing.T) {
	run := func(ext bool) core.OpStats {
		m := newMachine(8, 3)
		var s core.Scheme
		var l locks.Lock
		var hot mem.Addr
		var private [8]mem.Addr
		m.RunOne(func(th *tsx.Thread) {
			l = locks.NewTTAS(th)
			if ext {
				s = core.NewHLEHWExt(l)
			} else {
				s = core.NewHLE(l)
			}
			hot = th.AllocLines(1)
			for i := range private {
				private[i] = th.AllocLines(1)
			}
		})
		m.Run(8, func(th *tsx.Thread) {
			s.Setup(th)
			for i := 0; i < 150; i++ {
				if th.ID < 2 {
					s.Run(th, func() { // conflicting pair
						v := th.Load(hot)
						th.Work(10)
						th.Store(hot, v+1)
					})
				} else {
					s.Run(th, func() { // independent threads
						v := th.Load(private[th.ID])
						th.Work(10)
						th.Store(private[th.ID], v+1)
					})
				}
			}
		})
		var agg core.OpStats
		for id := 2; id < 8; id++ {
			agg.Add(s.Stats(id))
		}
		return agg
	}
	base := run(false)
	ext := run(true)
	// A small residue of non-speculative completions remains even under
	// the extension (threads arriving while the lock is held still abort
	// out of their doomed spin, as §3 describes), but it must be well
	// below the plain-HLE avalanche level.
	if ext.NonSpecFraction() > 0.1 {
		t.Errorf("HWExt: independent threads completed non-speculatively %.2f of the time; extension should shield them",
			ext.NonSpecFraction())
	}
	if ext.NonSpecFraction() >= base.NonSpecFraction() {
		t.Errorf("HWExt non-spec fraction %.2f should beat plain HLE %.2f",
			ext.NonSpecFraction(), base.NonSpecFraction())
	}
	if ext.AttemptsPerOp() >= base.AttemptsPerOp() {
		t.Errorf("HWExt attempts/op %.2f should beat plain HLE %.2f",
			ext.AttemptsPerOp(), base.AttemptsPerOp())
	}
}

// TestLemma1Prevented encodes the chapter's Lemma 1 example: T1
// transactionally runs {load X; load Y}, T2 non-speculatively runs
// {store Y; store X} under the same lock. A naive lock-ignoring design lets
// T1 commit having seen X=old, Y=new; the extension's suspend-on-miss rule
// must prevent any committed inconsistent snapshot.
func TestLemma1Prevented(t *testing.T) {
	m := newMachine(2, 5)
	var s core.Scheme
	var l locks.Lock
	var x, y mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		l = locks.NewTTAS(th)
		s = core.NewHLEHWExt(l)
		x = th.AllocLines(1)
		y = th.AllocLines(1)
	})
	violations := 0
	m.Run(2, func(th *tsx.Thread) {
		s.Setup(th)
		if th.ID == 0 {
			for i := 0; i < 200; i++ {
				bad := false
				s.Run(th, func() {
					bad = false
					vx := th.Load(x)
					th.Work(11)
					vy := th.Load(y)
					if vx != vy {
						bad = true
					}
				})
				if bad {
					violations++
				}
			}
			return
		}
		for i := 0; i < 200; i++ {
			// The writer takes the lock non-speculatively (the
			// Lemma 1 scenario): standard acquire, two stores with
			// a window between them.
			l.Acquire(th)
			v := th.Load(y)
			th.Store(y, v+1)
			th.Work(11)
			th.Store(x, v+1)
			l.Release(th)
			th.Work(7)
		}
	})
	if violations > 0 {
		t.Fatalf("%d committed inconsistent snapshots under HWExt", violations)
	}
}

// TestSuspensionResumes: a speculative thread that misses while the lock is
// held must resume and complete after the release rather than abort.
func TestSuspensionResumes(t *testing.T) {
	m := newMachine(2, 7)
	var s core.Scheme
	var l locks.Lock
	var spread mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		l = locks.NewTTAS(th)
		s = core.NewHLEHWExt(l)
		spread = th.AllocLines(0 + 64)
	})
	m.Run(2, func(th *tsx.Thread) {
		s.Setup(th)
		if th.ID == 1 {
			// Hold the lock non-speculatively across a long window.
			l.Acquire(th)
			th.Work(5000)
			l.Release(th)
			return
		}
		th.Work(100) // let the holder take the lock first
		r := s.Run(th, func() {
			// Touch many fresh lines: each is a miss; with the
			// lock held each miss suspends until release.
			for i := 0; i < 8; i++ {
				v := th.Load(spread + mem.Addr(i*mem.LineWords))
				th.Store(spread+mem.Addr(i*mem.LineWords), v+1)
			}
		})
		if !r.Spec {
			t.Error("speculative run did not survive the held lock")
		}
		if th.Clock() < 5000 {
			t.Errorf("speculative run finished at %d, before the lock release; suspension did not happen", th.Clock())
		}
	})
}

// TestHWExtName pins the report name.
func TestHWExtName(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		if got := core.NewHLEHWExt(locks.NewTTAS(th)).Name(); got != "HLE-HWExt" {
			t.Errorf("Name = %q", got)
		}
	})
}
