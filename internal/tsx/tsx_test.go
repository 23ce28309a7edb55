package tsx

import (
	"testing"

	"hle/internal/mem"
)

func newTestMachine(n int, seed int64) *Machine {
	cfg := DefaultConfig(n)
	cfg.Seed = seed
	cfg.SpuriousPerAccess = 0 // deterministic tests unless opted in
	return NewMachine(cfg)
}

func TestRTMCommitPublishes(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(2)
		ok, st := th.RTM(func() {
			th.Store(a, 11)
			th.Store(a+1, 22)
		})
		if !ok {
			t.Errorf("transaction aborted: %+v", st)
		}
		if th.Load(a) != 11 || th.Load(a+1) != 22 {
			t.Error("committed values not visible")
		}
	})
}

func TestRTMAbortRollsBack(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		th.Store(a, 5)
		ok, st := th.RTM(func() {
			th.Store(a, 99)
			th.Abort(0x42)
		})
		if ok {
			t.Fatal("transaction committed despite XABORT")
		}
		if st.Cause != CauseExplicit || st.Code != 0x42 {
			t.Errorf("status = %+v, want explicit code 0x42", st)
		}
		if !st.MayRetry {
			t.Error("explicit abort should set MayRetry")
		}
		if th.Load(a) != 5 {
			t.Errorf("value = %d after abort, want 5 (rollback)", th.Load(a))
		}
	})
}

func TestRTMBufferedReadsOwnWrites(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		th.Store(a, 1)
		ok, _ := th.RTM(func() {
			th.Store(a, 7)
			if th.Load(a) != 7 {
				t.Error("transaction does not see its own write")
			}
			if got := th.FetchAdd(a, 3); got != 7 {
				t.Errorf("FetchAdd saw %d, want 7", got)
			}
			if th.Load(a) != 10 {
				t.Error("FetchAdd result not visible in tx")
			}
		})
		if !ok {
			t.Fatal("unexpected abort")
		}
		if th.Load(a) != 10 {
			t.Error("final value wrong")
		}
	})
}

func TestFlatNesting(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		ok, _ := th.RTM(func() {
			th.Store(a, 1)
			inner, _ := th.RTM(func() {
				th.Store(a, 2)
			})
			if !inner {
				t.Error("nested region reported abort")
			}
			if th.Load(a) != 2 {
				t.Error("nested write invisible")
			}
		})
		if !ok {
			t.Fatal("outer aborted")
		}
		if th.Load(a) != 2 {
			t.Error("commit lost nested write")
		}
	})
}

func TestFlatNestingAbortUnwindsAll(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		ok, st := th.RTM(func() {
			th.Store(a, 1)
			th.RTM(func() {
				th.Abort(9)
			})
			t.Error("code after aborted nested region ran")
		})
		if ok || st.Code != 9 {
			t.Errorf("outer should abort with code 9, got ok=%v st=%+v", ok, st)
		}
		if th.Load(a) != 0 {
			t.Error("outer write survived abort")
		}
	})
}

// TestRequestorWins verifies the conflict policy: a non-transactional write
// dooms a transaction holding the line in its read set; the doomed
// transaction aborts at its next access.
func TestRequestorWins(t *testing.T) {
	m := newTestMachine(2, 3)
	var a, b mem.Addr
	m.RunOne(func(th *Thread) {
		a = th.AllocLines(1)
		b = th.AllocLines(1)
	})
	aborted := false
	m.Run(2, func(th *Thread) {
		if th.ID == 0 {
			ok, st := th.RTM(func() {
				_ = th.Load(a) // line a into read set
				// Spin long enough for thread 1 to write a.
				for i := 0; i < 100; i++ {
					_ = th.Load(b)
				}
			})
			if !ok && st.Cause == CauseConflict {
				aborted = true
				if mem.LineOf(st.ConflictAddr) != mem.LineOf(a) {
					t.Errorf("conflict addr %d, want line of %d", st.ConflictAddr, a)
				}
			}
		} else {
			th.Work(100) // let thread 0 enter its transaction
			th.Store(a, 1)
		}
	})
	if !aborted {
		t.Fatal("transaction was not doomed by the conflicting write")
	}
}

// TestRequestorWinsReadDoomsWriter: an incoming read dooms a transactional
// writer of the line, and the reader observes the committed (old) value.
func TestRequestorWinsReadDoomsWriter(t *testing.T) {
	m := newTestMachine(2, 3)
	var a, b mem.Addr
	m.RunOne(func(th *Thread) {
		a = th.AllocLines(1)
		b = th.AllocLines(1)
		th.Store(a, 7)
	})
	var sawValue uint64
	writerAborted := false
	m.Run(2, func(th *Thread) {
		if th.ID == 0 {
			ok, st := th.RTM(func() {
				th.Store(a, 99)
				for i := 0; i < 100; i++ {
					_ = th.Load(b)
				}
			})
			if !ok && st.Cause == CauseConflict {
				writerAborted = true
			}
		} else {
			th.Work(100)
			sawValue = th.Load(a)
		}
	})
	if !writerAborted {
		t.Fatal("writer transaction was not doomed by the read")
	}
	if sawValue != 7 {
		t.Errorf("reader saw %d, want committed value 7", sawValue)
	}
}

// checkLive fails unless the machine's live-transaction mask holds exactly
// the threads of the current Run that are inside a transaction.
func checkLive(t *testing.T, m *Machine) {
	t.Helper()
	var want uint64
	for _, th := range m.threads {
		if th != nil && th.tx != nil {
			want |= th.bit
		}
	}
	if m.live != want {
		t.Errorf("live-transaction mask %#x, want %#x", m.live, want)
	}
}

// TestPlainAccessDoomsTransaction: every kind of non-transactional access
// dooms another thread's transaction holding the line in its write set,
// with the flight recorder off (where a request finding no other live
// transaction skips the line lookup) and on. Each machine first has a run
// stopped while a thread is inside a transaction, which leaves that
// thread's context behind; the next Run must not count it as live.
func TestPlainAccessDoomsTransaction(t *testing.T) {
	accesses := map[string]func(th *Thread, a mem.Addr){
		"load":  func(th *Thread, a mem.Addr) { th.Load(a) },
		"store": func(th *Thread, a mem.Addr) { th.Store(a, 1) },
		"cas":   func(th *Thread, a mem.Addr) { th.CAS(a, 7, 8) },
		"swap":  func(th *Thread, a mem.Addr) { th.Swap(a, 1) },
		"add":   func(th *Thread, a mem.Addr) { th.FetchAdd(a, 1) },
	}
	for _, ring := range []int{0, 64} {
		for name, access := range accesses {
			cfg := DefaultConfig(2)
			cfg.Seed = 3
			cfg.SpuriousPerAccess = 0
			cfg.TraceRing = ring
			m := NewMachine(cfg)
			var a, b mem.Addr
			m.RunOne(func(th *Thread) {
				a = th.AllocLines(1)
				b = th.AllocLines(1)
			})

			m.SetWatchdog(func(minClock uint64) bool { return minClock > 300 })
			stopped := m.Run(2, func(th *Thread) {
				if th.ID == 0 {
					th.RTM(func() {
						th.Store(b, 1)
						for {
							th.Load(b)
						}
					})
				}
				th.Work(1 << 20)
			})
			m.SetWatchdog(nil)
			if !m.Stopped() || !stopped[0].InTx() {
				t.Fatalf("ring %d, %s: the watchdog did not stop thread 0 inside its transaction", ring, name)
			}

			doomed := false
			m.Run(2, func(th *Thread) {
				checkLive(t, m)
				if th.ID == 0 {
					ok, st := th.RTM(func() {
						th.Store(a, 99)
						checkLive(t, m)
						for i := 0; i < 100; i++ {
							th.Load(b)
						}
					})
					doomed = !ok && st.Cause == CauseConflict && mem.LineOf(st.ConflictAddr) == mem.LineOf(a)
				} else {
					th.Work(100) // let thread 0 enter its transaction
					access(th, a)
				}
				checkLive(t, m)
			})
			if !doomed {
				t.Errorf("ring %d: a plain %s did not doom the transaction writing its line", ring, name)
			}
		}
	}
}

// TestNoLostUpdates: concurrent transactional increments with a retry loop
// must be serializable.
func TestNoLostUpdates(t *testing.T) {
	m := newTestMachine(8, 11)
	var ctr mem.Addr
	m.RunOne(func(th *Thread) { ctr = th.AllocLines(1) })
	const perThread = 200
	m.Run(8, func(th *Thread) {
		for i := 0; i < perThread; i++ {
			for {
				ok, _ := th.RTM(func() {
					v := th.Load(ctr)
					th.Work(5)
					th.Store(ctr, v+1)
				})
				if ok {
					break
				}
			}
		}
	})
	var got uint64
	m.RunOne(func(th *Thread) { got = th.Load(ctr) })
	if got != 8*perThread {
		t.Fatalf("counter = %d, want %d (lost updates)", got, 8*perThread)
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	cfg.WriteSetLines = 16
	cfg.MemWords = 1 << 12
	m := NewMachine(cfg)
	m.RunOne(func(th *Thread) {
		big := th.Alloc(17 * mem.LineWords)
		ok, st := th.RTM(func() {
			for i := 0; i < 17; i++ {
				th.Store(big+mem.Addr(i*mem.LineWords), 1)
			}
		})
		if ok {
			t.Fatal("expected capacity abort")
		}
		if st.Cause != CauseCapacityWrite {
			t.Errorf("cause = %v, want capacity-write", st.Cause)
		}
		if st.MayRetry {
			t.Error("capacity abort must clear MayRetry")
		}
		// Under the capacity limit the same transaction commits.
		ok, _ = th.RTM(func() {
			for i := 0; i < 15; i++ {
				th.Store(big+mem.Addr(i*mem.LineWords), 1)
			}
		})
		if !ok {
			t.Error("within-capacity transaction aborted")
		}
	})
}

func TestReadCapacityLargerThanWrite(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	cfg.WriteSetLines = 16
	cfg.L1ReadLines = 16
	cfg.ReadSetLines = 4096
	cfg.MemWords = 1 << 16
	m := NewMachine(cfg)
	m.RunOne(func(th *Thread) {
		big := th.Alloc(200 * mem.LineWords)
		// 200 read lines: beyond L1 but within the secondary tracker;
		// should (almost always at this size) succeed.
		ok, st := th.RTM(func() {
			for i := 0; i < 200; i++ {
				_ = th.Load(big + mem.Addr(i*mem.LineWords))
			}
		})
		if !ok {
			t.Fatalf("read-heavy transaction aborted: %+v", st)
		}
	})
}

func TestReadHardCapAborts(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	cfg.L1ReadLines = 8
	cfg.ReadSetLines = 32
	cfg.MemWords = 1 << 12
	m := NewMachine(cfg)
	m.RunOne(func(th *Thread) {
		big := th.Alloc(64 * mem.LineWords)
		ok, st := th.RTM(func() {
			for i := 0; i < 64; i++ {
				_ = th.Load(big + mem.Addr(i*mem.LineWords))
			}
		})
		if ok {
			t.Fatal("expected read-capacity abort")
		}
		if st.Cause != CauseCapacityRead {
			t.Errorf("cause = %v, want capacity-read", st.Cause)
		}
	})
}

func TestSpuriousAborts(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0.01
	cfg.Seed = 5
	m := NewMachine(cfg)
	m.RunOne(func(th *Thread) {
		aborts := 0
		for i := 0; i < 500; i++ {
			ok, st := th.RTM(func() {
				for j := 0; j < 50; j++ {
					th.Work(1)
					_ = th.Load(mem.Addr(mem.LineWords))
				}
			})
			if !ok {
				if st.Cause != CauseSpurious {
					t.Fatalf("unexpected cause %v", st.Cause)
				}
				aborts++
			}
		}
		// P(abort) ≈ 1-(1-0.01)^50 ≈ 0.39; 500 trials should see many.
		if aborts < 50 {
			t.Errorf("only %d spurious aborts in 500 conflict-free txs", aborts)
		}
	})
}

func TestPauseAbortsTransaction(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		ok, st := th.RTM(func() {
			th.Pause()
		})
		if ok || st.Cause != CausePause {
			t.Errorf("ok=%v cause=%v, want pause abort", ok, st.Cause)
		}
		// Outside a transaction PAUSE is harmless.
		th.Pause()
	})
}

func TestAllocRollback(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		before := th.Memory().WordsInUse()
		var inTx mem.Addr
		th.RTM(func() {
			inTx = th.Alloc(4)
			th.Store(inTx, 42)
			th.Abort(1)
		})
		// The aborted allocation must be reusable.
		again := th.Alloc(4)
		if again != inTx {
			t.Errorf("aborted allocation not recycled: got %d want %d", again, inTx)
		}
		if th.Load(again) == 42 {
			t.Error("aborted transactional store leaked into recycled block")
		}
		_ = before
	})
}

func TestFreeDeferredToCommit(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.Alloc(4)
		// Abort: the free must not happen.
		th.RTM(func() {
			th.Free(a, 4)
			th.Abort(1)
		})
		b := th.Alloc(4)
		if b == a {
			t.Fatal("free applied despite abort")
		}
		// Commit: the free must happen.
		ok, _ := th.RTM(func() { th.Free(a, 4) })
		if !ok {
			t.Fatal("unexpected abort")
		}
		c := th.Alloc(4)
		if c != a {
			t.Fatalf("committed free not applied: got %d want %d", c, a)
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	m := newTestMachine(1, 1)
	ths := m.Run(1, func(th *Thread) {
		th.RTM(func() {})              // commit
		th.RTM(func() { th.Abort(1) }) // abort
		th.RTM(func() {})              // commit
	})
	s := ths[0].Stats
	if s.Begun != 3 || s.Committed != 2 || s.Aborted[CauseExplicit] != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalAborts() != 1 {
		t.Errorf("TotalAborts = %d", s.TotalAborts())
	}
}

func TestThreadFinishingInTxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unterminated transaction")
		}
	}()
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		th.beginTx()
	})
}
