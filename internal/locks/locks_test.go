package locks_test

import (
	"testing"

	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

func newMachine(n int, seed int64) *tsx.Machine {
	cfg := tsx.DefaultConfig(n)
	cfg.Seed = seed
	cfg.SpuriousPerAccess = 0
	return tsx.NewMachine(cfg)
}

func allLocks(t *tsx.Thread) []locks.Lock {
	var ls []locks.Lock
	for _, name := range []string{"TTAS", "MCS", "Ticket", "AdjTicket", "CLH", "AdjCLH"} {
		ls = append(ls, locks.MakerByName(name)(t))
	}
	return ls
}

// TestMutualExclusionStandard: under the standard path, the critical
// section is never occupied by two threads. The occupancy counter is a
// plain Go variable, safe because simulated execution is token-serialized.
func TestMutualExclusionStandard(t *testing.T) {
	for _, name := range []string{"TTAS", "BackoffTTAS", "MCS", "Ticket", "AdjTicket", "CLH", "AdjCLH"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(6, 7)
			var l locks.Lock
			m.RunOne(func(th *tsx.Thread) { l = locks.MakerByName(name)(th) })
			occupancy, maxOcc, total := 0, 0, 0
			m.Run(6, func(th *tsx.Thread) {
				l.Prepare(th)
				for i := 0; i < 100; i++ {
					l.Acquire(th)
					occupancy++
					if occupancy > maxOcc {
						maxOcc = occupancy
					}
					th.Work(uint64(th.Rand().Intn(20)))
					total++
					occupancy--
					l.Release(th)
					th.Work(uint64(th.Rand().Intn(10)))
				}
			})
			if maxOcc != 1 {
				t.Fatalf("max occupancy %d, want 1", maxOcc)
			}
			if total != 600 {
				t.Fatalf("completed %d operations, want 600", total)
			}
		})
	}
}

// TestMutualExclusionSpecPath: the HLE path also preserves mutual exclusion
// in the sense of serializability: a shared counter incremented in every
// critical section ends exact.
func TestMutualExclusionSpecPath(t *testing.T) {
	for _, name := range []string{"TTAS", "BackoffTTAS", "MCS", "Ticket", "AdjTicket", "CLH", "AdjCLH"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(6, 13)
			var l locks.Lock
			var ctr mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				l = locks.MakerByName(name)(th)
				ctr = th.AllocLines(1)
			})
			const perThread = 100
			m.Run(6, func(th *tsx.Thread) {
				l.Prepare(th)
				for i := 0; i < perThread; i++ {
					th.HLERegion(func() {
						l.SpecAcquire(th)
						v := th.Load(ctr)
						th.Work(3)
						th.Store(ctr, v+1)
						l.SpecRelease(th)
					})
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

// TestElisionConcurrency: two threads with disjoint data must both complete
// their elided critical sections speculatively, and the lock word is never
// actually written.
func TestElisionConcurrency(t *testing.T) {
	for _, name := range []string{"TTAS", "BackoffTTAS", "MCS", "AdjTicket", "AdjCLH"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(4, 3)
			var l locks.Lock
			var cells [4]mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				l = locks.MakerByName(name)(th)
				for i := range cells {
					cells[i] = th.AllocLines(1)
				}
			})
			ths := m.Run(4, func(th *tsx.Thread) {
				l.Prepare(th)
				for i := 0; i < 50; i++ {
					th.HLERegion(func() {
						l.SpecAcquire(th)
						v := th.Load(cells[th.ID])
						th.Work(5)
						th.Store(cells[th.ID], v+1)
						l.SpecRelease(th)
					})
				}
			})
			for _, th := range ths {
				if th.Stats.Committed < 45 {
					t.Errorf("thread %d committed only %d/50 speculatively", th.ID, th.Stats.Committed)
				}
			}
		})
	}
}

// TestHLEIllusion: inside an elided TTAS critical section the lock reads as
// held, even though it was never written — HLE's self-illusion.
func TestHLEIllusion(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		l := locks.NewTTAS(th)
		sawHeld := false
		th.HLERegion(func() {
			l.SpecAcquire(th)
			sawHeld = l.Held(th)
			l.SpecRelease(th)
		})
		if !sawHeld {
			t.Error("elided critical section did not see the lock as held")
		}
		if l.Held(th) {
			t.Error("lock still held after elided release")
		}
	})
}

// TestAdjustedTicketSoloRestores verifies Theorem 1(i): a solo
// (non-speculative) run of the adjusted ticket lock restores the lock to
// its initial state on release.
func TestAdjustedTicketSoloRestores(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		l := locks.NewAdjustedTicket(th)
		for i := 0; i < 5; i++ {
			l.Acquire(th)
			th.Work(3)
			l.Release(th)
		}
		if next := th.Load(l.Addr()); next != 0 {
			t.Errorf("next = %d after solo runs, want 0 (state restored)", next)
		}
		if owner := th.Load(l.Addr() + 1); owner != 0 {
			t.Errorf("owner = %d after solo runs, want 0", owner)
		}
	})
}

// TestAdjustedCLHSoloRestores verifies Theorem 2(i) for the adjusted CLH.
func TestAdjustedCLHSoloRestores(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		l := locks.NewAdjustedCLH(th)
		l.Prepare(th)
		initialTail := th.Load(l.Addr())
		for i := 0; i < 5; i++ {
			l.Acquire(th)
			th.Work(3)
			l.Release(th)
		}
		if tail := th.Load(l.Addr()); tail != initialTail {
			t.Errorf("tail = %d after solo runs, want initial %d", tail, initialTail)
		}
	})
}

// TestUnadjustedTicketMultiThreaded: the standard ticket lock still works
// (the HLE incompatibility is about elision, not correctness).
func TestUnadjustedFairLocksProgress(t *testing.T) {
	for _, name := range []string{"Ticket", "CLH"} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(4, 21)
			var l locks.Lock
			var ctr mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				l = locks.MakerByName(name)(th)
				ctr = th.AllocLines(1)
			})
			m.Run(4, func(th *tsx.Thread) {
				l.Prepare(th)
				for i := 0; i < 50; i++ {
					// SpecAcquire falls back to the standard path.
					th.HLERegion(func() {
						l.SpecAcquire(th)
						th.Store(ctr, th.Load(ctr)+1)
						l.SpecRelease(th)
					})
				}
			})
			var got uint64
			m.RunOne(func(th *tsx.Thread) { got = th.Load(ctr) })
			if got != 200 {
				t.Fatalf("counter = %d, want 200", got)
			}
		})
	}
}

// TestFairLockFIFO: with a ticket lock, threads waiting on a held lock are
// served in arrival order.
func TestFairLockFIFO(t *testing.T) {
	m := newMachine(4, 5)
	var l locks.Lock
	m.RunOne(func(th *tsx.Thread) { l = locks.NewTicket(th) })
	var arrival, service []int
	m.Run(4, func(th *tsx.Thread) {
		l.Prepare(th)
		// Stagger arrivals deterministically by ID.
		th.Work(uint64(th.ID) * 1000)
		arrival = append(arrival, th.ID)
		l.Acquire(th)
		service = append(service, th.ID)
		th.Work(5000) // hold long enough that all later threads queue up
		l.Release(th)
	})
	if len(arrival) != 4 || len(service) != 4 {
		t.Fatalf("arrival=%v service=%v", arrival, service)
	}
	for i := range arrival {
		if arrival[i] != service[i] {
			t.Fatalf("FIFO violated: arrival %v, service %v", arrival, service)
		}
	}
}

// TestFairnessNoStarvation: under heavy contention on a fair lock, the
// spread of per-thread completions stays small.
func TestFairnessNoStarvation(t *testing.T) {
	m := newMachine(8, 17)
	var l locks.Lock
	m.RunOne(func(th *tsx.Thread) { l = locks.NewMCS(th) })
	counts := make([]int, 8)
	const budget = 2_000_00
	m.Run(8, func(th *tsx.Thread) {
		l.Prepare(th)
		for th.Clock() < budget {
			l.Acquire(th)
			th.Work(30)
			l.Release(th)
			counts[th.ID]++
		}
	})
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || float64(max)/float64(min) > 2.0 {
		t.Fatalf("unfair completion spread under MCS: %v", counts)
	}
}

func TestMakerByNameUnknown(t *testing.T) {
	if locks.MakerByName("nope") != nil {
		t.Fatal("unknown lock name should return nil")
	}
}
