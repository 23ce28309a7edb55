package tsx

import (
	"testing"

	"hle/internal/mem"
)

// TestSecondElisionInsideElision: Haswell supports one elision at a time;
// an XACQUIRE executed inside an elided region has its prefix ignored and
// runs as a transactional store. The inner "lock" is therefore really
// written at commit — the documented pitfall of nesting elided locks.
func TestSecondElisionInsideElision(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		outer := th.AllocLines(1)
		inner := th.AllocLines(1)
		th.HLERegion(func() {
			th.XAcquireSwap(outer, 1)
			if !th.InElision() {
				t.Fatal("outer elision did not start")
			}
			// Inner acquire: prefix ignored, transactional store.
			if got := th.XAcquireSwap(inner, 1); got != 0 {
				t.Fatalf("inner swap observed %d", got)
			}
			if th.tx.elidedAddr != outer {
				t.Fatal("inner XAcquire replaced the elided lock")
			}
			th.XReleaseStore(inner, 0) // plain transactional store
			if !th.InTx() {
				t.Fatal("inner XRelease ended the outer elision")
			}
			th.XReleaseStore(outer, 0)
		})
		if th.Load(outer) != 0 || th.Load(inner) != 0 {
			t.Fatal("locks left disturbed")
		}
	})
}

// TestAbortStatusOutsideTxIsNoop: XABORT outside any transaction is a
// no-op, as on hardware.
func TestAbortOutsideTxIsNoop(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		th.Abort(9) // must not panic
		if th.InTx() {
			t.Fatal("Abort started a transaction?")
		}
	})
}

// TestXReleaseOnDifferentAddress: an XRELEASE store to a non-elided
// address is a plain transactional store and does not end the elision —
// this is why the unadjusted ticket lock cannot commit (Chapter 6).
func TestXReleaseOnDifferentAddress(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		other := th.AllocLines(1)
		aborted := false
		th.HLERegion(func() {
			th.XAcquireSwap(lock, 1)
			if !th.InElision() {
				// Re-issued second attempt: complete non-speculatively.
				th.XReleaseStore(lock, 0)
				return
			}
			th.XReleaseStore(other, 7) // plain tx store; elision continues
			if !th.InTx() {
				t.Error("mismatched XRelease committed the elision")
			}
			aborted = true
			th.Abort(3) // give up; the region retries non-speculatively
		})
		if !aborted {
			t.Fatal("test path not exercised")
		}
		if th.Load(other) != 0 {
			t.Error("aborted transactional store leaked")
		}
	})
}

// TestRMWOnElidedLockInsideTx: CAS and FetchAdd against the elided address
// observe the illusion value.
func TestRMWOnElidedLockInsideTx(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		lock := th.AllocLines(1)
		th.HLERegion(func() {
			th.XAcquireSwap(lock, 7)
			if !th.InElision() {
				th.XReleaseStore(lock, 0)
				return
			}
			if got := th.FetchAdd(lock, 1); got != 7 {
				t.Errorf("FetchAdd on elided lock saw %d, want illusion 7", got)
			}
			// The data RMW moved the lock line to the write set; an
			// XRELEASE restoring the original value still commits.
			th.XReleaseStore(lock, 0)
		})
		if th.Load(lock) != 0 {
			t.Errorf("lock = %d after region", th.Load(lock))
		}
	})
}

// TestConflictAddressExtension: the future-work abort information — the
// conflicting cache line — is reported precisely.
func TestConflictAddressExtension(t *testing.T) {
	m := newTestMachine(2, 9)
	var a, b, c mem.Addr
	m.RunOne(func(th *Thread) {
		a = th.AllocLines(1)
		b = th.AllocLines(1)
		c = th.AllocLines(1)
	})
	var reported mem.Addr
	m.Run(2, func(th *Thread) {
		if th.ID == 0 {
			_, st := th.RTM(func() {
				_ = th.Load(a)
				_ = th.Load(b)
				for i := 0; i < 200; i++ {
					_ = th.Load(c)
				}
			})
			if st.Cause == CauseConflict {
				reported = st.ConflictAddr
			}
		} else {
			th.Work(300)
			th.Store(b, 1) // conflict specifically on b
		}
	})
	if mem.LineOf(reported) != mem.LineOf(b) {
		t.Fatalf("conflict reported at %d, want line of %d", reported, b)
	}
}

// TestRunOneIsolation: sequential RunOne calls see each other's memory but
// never inherit transaction state.
func TestRunOneIsolation(t *testing.T) {
	m := newTestMachine(1, 1)
	var a mem.Addr
	m.RunOne(func(th *Thread) {
		a = th.AllocLines(1)
		th.Store(a, 42)
	})
	m.RunOne(func(th *Thread) {
		if th.InTx() {
			t.Fatal("fresh thread starts inside a transaction")
		}
		if th.Load(a) != 42 {
			t.Fatal("memory did not persist across runs")
		}
	})
}

// TestSpuriousDrawBounds sanity-checks the spurious-abort sampling at
// several configured rates.
func TestSpuriousDrawBounds(t *testing.T) {
	mk := func(p float64) *Machine {
		cfg := DefaultConfig(1)
		cfg.Seed = 3
		cfg.SpuriousPerAccess = p
		return NewMachine(cfg)
	}
	m := mk(0)
	m.RunOne(func(th *Thread) {
		if d := th.drawSpuriousAt(); d < 1<<40 {
			t.Errorf("p=0 draw %d should be effectively infinite", d)
		}
	})
	m = mk(1)
	m.RunOne(func(th *Thread) {
		if d := th.drawSpuriousAt(); d != 1 {
			t.Errorf("p=1 draw %d, want 1", d)
		}
	})
	m = mk(0.1)
	m.RunOne(func(th *Thread) {
		sum := 0
		const n = 2000
		for i := 0; i < n; i++ {
			sum += th.drawSpuriousAt()
		}
		meanDraw := float64(sum) / n
		if meanDraw < 7 || meanDraw > 13 {
			t.Errorf("geometric(0.1) mean %.1f, want ≈10", meanDraw)
		}
	})
}
