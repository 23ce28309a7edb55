package tsx

import (
	"testing"
	"testing/quick"

	"hle/internal/mem"
)

// TestHLEElisionBasics: an elided acquire/release pair commits without ever
// writing the lock, while giving the transaction the illusion it did.
func TestHLEElisionBasics(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		data := th.AllocLines(1)
		th.HLERegion(func() {
			if got := th.XAcquireSwap(lock, 1); got != 0 {
				t.Fatalf("elided swap observed %d, want 0", got)
			}
			if !th.InElision() {
				t.Fatal("not in elision after XAcquireSwap")
			}
			if th.Load(lock) != 1 {
				t.Error("illusion broken: lock reads free inside elision")
			}
			th.Store(data, 42)
			th.XReleaseStore(lock, 0)
			if th.InTx() {
				t.Error("transaction still open after XRelease")
			}
		})
		if th.Load(lock) != 0 {
			t.Error("lock was actually written")
		}
		if th.Load(data) != 42 {
			t.Error("elided critical section's data write lost")
		}
	})
}

// TestHLERestoreRule: an XRELEASE that does not restore the lock value
// aborts the elision (CauseHLERestore), and the subsequent re-issue runs
// non-transactionally.
func TestHLERestoreRule(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		attempts := 0
		th.HLERegion(func() {
			attempts++
			th.XAcquireSwap(lock, 1)
			if th.InElision() {
				// Break the restore rule on purpose.
				th.XReleaseStore(lock, 7)
				t.Error("restore-rule violation did not abort")
				return
			}
			// Re-issued path: the store really happened.
			if th.Load(lock) != 1 {
				t.Error("re-issued XAcquireSwap did not store")
			}
			th.XReleaseStore(lock, 0)
		})
		if attempts != 2 {
			t.Fatalf("attempts = %d, want 2 (one elided+aborted, one real)", attempts)
		}
		if th.Stats.Aborted[CauseHLERestore] != 1 {
			t.Fatalf("restore aborts = %d", th.Stats.Aborted[CauseHLERestore])
		}
	})
}

// TestReissueSemantics: after an abort the very next XAcquire executes
// non-transactionally, but later XAcquires elide again — Chapter 3's TTAS
// recovery depends on exactly this.
func TestReissueSemantics(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		phase := 0
		th.HLERegion(func() {
			switch phase {
			case 0:
				phase = 1
				th.XAcquireSwap(lock, 1)
				th.Abort(1) // force an abort mid-elision
			case 1:
				phase = 2
				if !th.ReissuePending() {
					t.Error("re-issue not pending after abort")
				}
				th.XAcquireSwap(lock, 1) // executes for real
				if th.InTx() {
					t.Error("re-issued swap started a transaction")
				}
				if th.Load(lock) != 1 {
					t.Error("re-issued swap did not write")
				}
				th.XReleaseStore(lock, 0) // plain store
			}
		})
		if th.Load(lock) != 0 {
			t.Error("lock not released")
		}
		// A later region elides again (suppression was consumed).
		th.HLERegion(func() {
			th.XAcquireSwap(lock, 1)
			if !th.InElision() {
				t.Error("subsequent region did not elide")
			}
			th.XReleaseStore(lock, 0)
		})
	})
}

// TestNestHLEInRTM: with nesting enabled (Algorithm 3 verbatim), an
// XACQUIRE inside an RTM region begins an elision whose XRELEASE ends the
// elision but defers the commit to the outer XEND.
func TestNestHLEInRTM(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	m := NewMachine(cfg)
	m.RunOne(func(th *Thread) {
		th.SetNestedElision(true)
		lock := th.AllocLines(1)
		data := th.AllocLines(1)
		ok, st := th.RTM(func() {
			old := th.XAcquireSwap(lock, 1)
			if old != 0 {
				t.Errorf("nested elision observed lock=%d", old)
			}
			if th.Load(lock) != 1 {
				t.Error("nested elision illusion broken")
			}
			th.Store(data, 5)
			if !th.XReleaseCAS(lock, 1, 0) {
				t.Error("nested XReleaseCAS failed")
			}
			if !th.InTx() {
				t.Error("outer RTM region ended at nested XRelease")
			}
			if th.Load(lock) != 0 {
				t.Error("lock still reads held after elision ended")
			}
		})
		if !ok {
			t.Fatalf("outer region aborted: %+v", st)
		}
		if th.Load(lock) != 0 || th.Load(data) != 5 {
			t.Error("final state wrong")
		}
	})
}

// TestHaswellIgnoresNestedXAcquire: without nesting support the prefix is
// ignored and the swap executes transactionally, really writing the lock
// at commit — the behaviour that forced the paper's implementation remark.
func TestHaswellIgnoresNestedXAcquire(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		ok, _ := th.RTM(func() {
			th.XAcquireSwap(lock, 1) // plain transactional swap
			if th.InElision() {
				t.Error("elision started inside RTM on a non-nesting machine")
			}
		})
		if !ok {
			t.Fatal("transaction aborted")
		}
		if th.Load(lock) != 1 {
			t.Error("ignored-prefix swap was not published")
		}
	})
}

// TestElidedLockWrittenAsData: a critical section that also stores to the
// elided lock word keeps transactional semantics (the corner case the
// engine handles by moving the lock line into the write set).
func TestElidedLockWrittenAsData(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		th.HLERegion(func() {
			th.XAcquireSwap(lock, 1)
			th.Store(lock, 5) // data write to the lock word
			if th.Load(lock) != 5 {
				t.Error("data write to lock not visible in tx")
			}
			th.XReleaseStore(lock, 0) // restores the original value
		})
		if th.Load(lock) != 0 {
			t.Errorf("lock = %d after elided region, want 0", th.Load(lock))
		}
	})
}

// TestFreeCacheThreadLocal: a block freed by one thread is not immediately
// handed to another thread (jemalloc-style tcache behaviour), but is
// available globally after the run.
func TestFreeCacheThreadLocal(t *testing.T) {
	m := newTestMachine(2, 1)
	var freed mem.Addr
	m.RunOne(func(th *Thread) {
		freed = th.Alloc(4)
	})
	var otherGot mem.Addr
	m.Run(2, func(th *Thread) {
		if th.ID == 0 {
			th.Free(freed, 4)
			th.Work(1000)
		} else {
			th.Work(100) // run after the free
			otherGot = th.Alloc(4)
		}
	})
	if otherGot == freed {
		t.Error("cross-thread immediate reuse (tcache should prevent this)")
	}
	// After the run, caches were flushed to the global allocator.
	var later mem.Addr
	m.RunOne(func(th *Thread) { later = th.Alloc(4) })
	if later != freed {
		t.Errorf("flushed block not reused: got %d want %d", later, freed)
	}
}

// TestSerializabilityProperty: random transactional histories over a small
// array remain serializable — the per-cell sums written transactionally
// always equal a global transactional counter.
func TestSerializabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := newTestMachine(4, seed)
		var cells [4]mem.Addr
		var total mem.Addr
		m.RunOne(func(th *Thread) {
			for i := range cells {
				cells[i] = th.AllocLines(1)
			}
			total = th.AllocLines(1)
		})
		m.Run(4, func(th *Thread) {
			for i := 0; i < 50; i++ {
				c := cells[th.Rand().Intn(len(cells))]
				for {
					ok, _ := th.RTM(func() {
						th.Store(c, th.Load(c)+1)
						th.Work(uint64(th.Rand().Intn(8)))
						th.Store(total, th.Load(total)+1)
					})
					if ok {
						break
					}
				}
			}
		})
		good := true
		m.RunOne(func(th *Thread) {
			var sum uint64
			for _, c := range cells {
				sum += th.Load(c)
			}
			good = sum == th.Load(total) && sum == 200
		})
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCostJitterZeroExactClocks: disabling jitter gives exact, analyzable
// clock arithmetic.
func TestCostJitterZeroExactClocks(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	cfg.CostJitter = -1 // disable
	m := NewMachine(cfg)
	ths := m.Run(1, func(th *Thread) {
		start := th.Clock()
		th.Work(100)
		if th.Clock()-start != 100 {
			t.Errorf("jitter-free Work(100) advanced %d", th.Clock()-start)
		}
	})
	_ = ths
}

// TestEvictionCalibration: read-only transactions around the calibrated
// knee show a rising failure probability; far below they almost always
// succeed and far above they almost always fail.
func TestEvictionCalibration(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	cfg.L1ReadLines = 64
	cfg.ReadSetLines = 1024
	cfg.MemWords = 1 << 16
	m := NewMachine(cfg)
	failureRate := func(lines, reps int) float64 {
		fails := 0
		m.RunOne(func(th *Thread) {
			arr := th.AllocLines(lines * mem.LineWords)
			for i := 0; i < reps; i++ {
				ok, _ := th.RTM(func() {
					for l := 0; l < lines; l++ {
						_ = th.Load(arr + mem.Addr(l*mem.LineWords))
					}
				})
				if !ok {
					fails++
				}
			}
		})
		return float64(fails) / float64(reps)
	}
	if r := failureRate(32, 100); r > 0.05 {
		t.Errorf("within-L1 reads fail at rate %.2f", r)
	}
	if r := failureRate(1024, 50); r < 0.95 {
		t.Errorf("at-capacity reads only fail at rate %.2f", r)
	}
}
