package locks_test

import (
	"testing"

	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// TestMixedSpeculativeAndStandard covers the "mixed runs" case of the
// Chapter 6 correctness theorems: half the threads use the speculative
// path, half the standard path, concurrently — mutual exclusion must hold
// (checked through exact counter arithmetic).
func TestMixedSpeculativeAndStandard(t *testing.T) {
	for _, name := range []string{"TTAS", "MCS", "AdjTicket", "AdjCLH"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(6, 29)
			var l locks.Lock
			var ctr mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				l = locks.MakerByName(name)(th)
				ctr = th.AllocLines(1)
			})
			const perThread = 80
			m.Run(6, func(th *tsx.Thread) {
				l.Prepare(th)
				for i := 0; i < perThread; i++ {
					if th.ID%2 == 0 {
						th.HLERegion(func() {
							l.SpecAcquire(th)
							v := th.Load(ctr)
							th.Work(4)
							th.Store(ctr, v+1)
							l.SpecRelease(th)
						})
					} else {
						l.Acquire(th)
						v := th.Load(ctr)
						th.Work(4)
						th.Store(ctr, v+1)
						l.Release(th)
					}
				}
			})
			var got uint64
			m.RunOne(func(th *tsx.Thread) { got = th.Load(ctr) })
			if got != 6*perThread {
				t.Fatalf("counter = %d, want %d", got, 6*perThread)
			}
		})
	}
}

// TestTryAcquire covers the HLE-reissue analogue: TTAS's single attempt can
// fail; queue locks block and succeed.
func TestTryAcquire(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		ttas := locks.NewTTAS(th)
		ttas.Prepare(th)
		if !ttas.TryAcquire(th) {
			t.Fatal("TryAcquire on free TTAS failed")
		}
		if ttas.TryAcquire(th) {
			t.Fatal("TryAcquire on held TTAS succeeded")
		}
		ttas.Release(th)

		mcs := locks.NewMCS(th)
		mcs.Prepare(th)
		if !mcs.TryAcquire(th) {
			t.Fatal("MCS TryAcquire must block and succeed")
		}
		mcs.Release(th)
	})
}

// TestHeldReflectsState for each lock.
func TestHeldReflectsState(t *testing.T) {
	for _, name := range []string{"TTAS", "MCS", "Ticket", "AdjTicket", "CLH", "AdjCLH"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(1, 1)
			m.RunOne(func(th *tsx.Thread) {
				l := locks.MakerByName(name)(th)
				l.Prepare(th)
				if l.Held(th) {
					t.Fatal("fresh lock reads held")
				}
				l.Acquire(th)
				if !l.Held(th) {
					t.Fatal("acquired lock reads free")
				}
				l.Release(th)
				if l.Held(th) {
					t.Fatal("released lock reads held")
				}
			})
		})
	}
}

// TestFairAttribute pins the fairness metadata the schemes rely on.
func TestFairAttribute(t *testing.T) {
	want := map[string]bool{
		"TTAS": false, "MCS": true, "Ticket": true,
		"AdjTicket": true, "CLH": true, "AdjCLH": true,
	}
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		for name, fair := range want {
			l := locks.MakerByName(name)(th)
			if l.Fair() != fair {
				t.Errorf("%s.Fair() = %v, want %v", name, l.Fair(), fair)
			}
			if l.Name() != name {
				t.Errorf("Name() = %q, want %q", l.Name(), name)
			}
		}
	})
}

// TestAdjustedLocksEraseTracesUnderElision: Theorem 1(i)/2(i) for the
// speculative path — after a fully-elided acquire/release, the lock's
// shared state (tail word or ticket counters) is bit-identical to before.
// (The thread's private queue-node initialization happens before the
// XACQUIRE and is a real store on hardware too, so it is excluded.)
func TestAdjustedLocksEraseTracesUnderElision(t *testing.T) {
	for _, name := range []string{"AdjTicket", "AdjCLH", "MCS"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(1, 1)
			m.RunOne(func(th *tsx.Thread) {
				l := locks.MakerByName(name)(th)
				l.Prepare(th)
				var shared []mem.Addr
				switch v := l.(type) {
				case *locks.AdjustedTicket:
					shared = []mem.Addr{v.Addr(), v.Addr() + 1}
				case *locks.AdjustedCLH:
					shared = []mem.Addr{v.Addr(), mem.Addr(th.Load(v.Addr()))}
				case *locks.MCS:
					shared = []mem.Addr{v.Addr()}
				}
				before := make([]uint64, len(shared))
				for i, a := range shared {
					before[i] = th.Load(a)
				}
				th.HLERegion(func() {
					l.SpecAcquire(th)
					if !th.InElision() {
						t.Fatal("did not elide")
					}
					l.SpecRelease(th)
				})
				for i, a := range shared {
					if got := th.Load(a); got != before[i] {
						t.Errorf("lock word %d changed from %d to %d after elided critical section",
							a, before[i], got)
					}
				}
			})
		})
	}
}

// TestLockMetadataAndMakers covers the registry and metadata across all
// locks, including the backoff variant.
func TestLockMetadataAndMakers(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		if got := len(allLocks(th)); got != 6 {
			t.Errorf("allLocks returned %d locks", got)
		}
		b := locks.NewBackoffTTAS(th)
		b.Prepare(th)
		if b.Name() != "BackoffTTAS" || b.Fair() {
			t.Error("BackoffTTAS metadata wrong")
		}
		if !b.TryAcquire(th) {
			t.Fatal("TryAcquire on free backoff lock failed")
		}
		if b.TryAcquire(th) {
			t.Fatal("TryAcquire on held backoff lock succeeded")
		}
		if !b.Held(th) {
			t.Fatal("Held wrong")
		}
		b.Release(th)

		ttas := locks.NewTTAS(th)
		ttas.Prepare(th)
		if ttas.Addr() == 0 {
			t.Error("TTAS.Addr returned nil address")
		}
		tk := locks.NewTicket(th)
		tk.Prepare(th)
		if !tk.TryAcquire(th) {
			t.Fatal("ticket TryAcquire should block-and-succeed")
		}
		tk.Release(th)
		at := locks.NewAdjustedTicket(th)
		at.Prepare(th)
		if !at.TryAcquire(th) {
			t.Fatal("adjusted-ticket TryAcquire should block-and-succeed")
		}
		at.Release(th)
		clh := locks.NewCLH(th)
		clh.Prepare(th)
		if !clh.TryAcquire(th) {
			t.Fatal("CLH TryAcquire should block-and-succeed")
		}
		clh.Release(th)
		aclh := locks.NewAdjustedCLH(th)
		aclh.Prepare(th)
		if !aclh.TryAcquire(th) {
			t.Fatal("adjusted-CLH TryAcquire should block-and-succeed")
		}
		aclh.Release(th)
	})
}

// TestMCSReleaseWithLateSuccessor exercises the MCS release race window:
// the releaser sees next==nil, its CAS fails because a successor is mid-
// enqueue, and it must wait for the successor link before handing over.
func TestMCSReleaseWithLateSuccessor(t *testing.T) {
	m := newMachine(8, 77)
	var l locks.Lock
	var ctr mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		l = locks.NewMCS(th)
		ctr = th.AllocLines(1)
	})
	// Zero think time maximizes enqueue-during-release races.
	m.Run(8, func(th *tsx.Thread) {
		l.Prepare(th)
		for i := 0; i < 200; i++ {
			l.Acquire(th)
			th.Store(ctr, th.Load(ctr)+1)
			l.Release(th)
		}
	})
	var got uint64
	m.RunOne(func(th *tsx.Thread) { got = th.Load(ctr) })
	if got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
}
