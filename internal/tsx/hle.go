package tsx

import "hle/internal/mem"

// HLERegion executes body with hardware lock elision semantics. Within
// body, a lock implementation issues XAcquire* operations (which begin an
// elided transaction) and XRelease* operations (which commit it). If the
// transaction aborts, hardware rolls back to the XACQUIRE and re-executes
// the acquiring instruction once without elision; HLERegion models that by
// re-running body with the next XAcquire suppressed.
//
// Because the whole closure re-runs, code between the start of body and the
// XAcquire operation must be idempotent — true of all the lock algorithms
// in internal/locks (their pre-acquire code only initializes thread-local
// queue nodes).
func (t *Thread) HLERegion(body func()) {
	for {
		if t.tryHLE(body) {
			return
		}
		// The re-issued acquiring store executes non-transactionally.
		t.elisionSuppressed = true
	}
	// The suppression flag is consumed by the next XAcquire, so if the
	// non-speculative attempt loses a race and retries, later attempts
	// elide again — exactly the dynamics Chapter 3 describes for TTAS.
}

func (t *Thread) tryHLE(body func()) (done bool) {
	defer func() {
		if t.aborting {
			t.endAbort(recover())
			t.finishAbort()
			done = false
		}
	}()
	body()
	if t.tx != nil {
		panic("tsx: HLERegion body left an elided transaction open (missing XRelease?)")
	}
	return true
}

// xacquireStart begins an elided transaction whose acquiring store to a
// "wrote" newVal. Per the HLE specification the store is treated as a load:
// the lock's cache line joins the read set (except under the Chapter 7
// extension, where the lock line is tracked separately), while the
// transaction sees newVal when it reads the lock. It returns the observed
// pre-acquire lock value and the new transaction.
//
// The caller must charge its instruction cost (Step) BEFORE calling: from
// here to return there are no scheduler yields, so the value snapshot and
// the read-set registration are atomic with respect to other simulated
// threads, as a single XACQUIRE-prefixed instruction is on hardware.
func (t *Thread) xacquireStart(a mem.Addr, newVal uint64) (uint64, *txState) {
	old := t.m.Mem.Read(a)
	t.trace(EvXacqElide, a, old)
	tx := t.beginTx()
	tx.elided = true
	tx.hleOuter = true
	tx.elidedAddr = a
	tx.elidedOld = old
	tx.elidedVal = newVal
	// Eager subscription: the lock line joins the read set here. Under
	// the Chapter 7 extension the lock line is tracked separately, and
	// under lazy subscription the entry is deferred to the commit
	// pipeline (commitLazy) — the entire point of the mode.
	if t.sub == SubEager {
		t.txTouchRead(tx, mem.LineOf(a))
	}
	return old, tx
}

// xacquireNested begins elision inside an already-running RTM transaction
// (flat nesting), used by Algorithm 3 verbatim on a thread whose scheme
// turned nesting on (SetNestedElision).
func (t *Thread) xacquireNested(tx *txState, a mem.Addr, newVal uint64) uint64 {
	t.txPreAccess(tx)
	old := t.txLoadValue(tx, a)
	tx.elided = true
	tx.elidedAddr = a
	tx.elidedOld = old
	tx.elidedVal = newVal
	// Nested elision always subscribes eagerly: its elision state ends at
	// the XRELEASE (before the RTM commit), so there is no commit-time
	// obligation to defer to. Lazy subscription applies to outer HLE and
	// to RTM predicates registered via LazySubscribe.
	if t.sub != SubHWExt && t.sub != SubHWExtNoSuspend {
		t.txTouchRead(tx, mem.LineOf(a))
	}
	return old
}

// SetNestedElision selects whether an XACQUIRE inside this thread's RTM
// transactions begins a nested elision (Algorithm 3 verbatim) or, as on
// Haswell, which does not support it, is ignored: off until set, and off
// at the start of every Run. Schemes call it from Setup. It must not be
// called inside a transaction.
func (t *Thread) SetNestedElision(on bool) {
	if t.tx != nil {
		panic("tsx: SetNestedElision inside a transaction")
	}
	t.nest = on
}

// consumeSuppression reports whether the next XAcquire must execute without
// elision (the hardware re-issue after an HLE abort), clearing the flag.
func (t *Thread) consumeSuppression() bool {
	if t.elisionSuppressed && t.tx == nil {
		t.elisionSuppressed = false
		return true
	}
	return false
}

// ReissuePending reports whether the next XAcquire will be the
// non-transactional re-issue following an HLE abort. Lock code whose
// acquire path tests the lock before the XACQUIRE instruction (TTAS) must
// consult this and skip the pre-test on a re-issue: hardware rolls back to
// the XACQUIRE instruction itself, so the re-issued test-and-set executes
// immediately — typically failing because the first aborter holds the lock
// — after which the software retry loop elides again. Rolling all the way
// back to the pre-test would instead wait for the lock and then acquire it
// for real, serializing forever (see Chapter 3's TTAS recovery analysis).
func (t *Thread) ReissuePending() bool {
	return t.elisionSuppressed && t.tx == nil
}

// XAcquireSwap is an XACQUIRE-prefixed atomic exchange (the TTAS
// test-and-set and the MCS tail swap). It returns the value the swap
// observed; under elision that is the in-memory value at XACQUIRE time.
func (t *Thread) XAcquireSwap(a mem.Addr, v uint64) uint64 {
	if t.consumeSuppression() {
		return t.Swap(a, v)
	}
	if tx := t.tx; tx != nil {
		if t.nest && !tx.elided {
			t.Step(t.m.cfg.Costs.RMW)
			return t.xacquireNested(tx, a, v)
		}
		return t.Swap(a, v)
	}
	t.Step(t.m.cfg.Costs.RMW + t.m.cfg.Costs.Begin)
	old, _ := t.xacquireStart(a, v)
	return old
}

// XAcquireFetchAdd is an XACQUIRE-prefixed fetch-and-add (the ticket lock's
// next-counter increment).
func (t *Thread) XAcquireFetchAdd(a mem.Addr, delta uint64) uint64 {
	if t.consumeSuppression() {
		return t.FetchAdd(a, delta)
	}
	if tx := t.tx; tx != nil {
		if t.nest && !tx.elided {
			t.Step(t.m.cfg.Costs.RMW)
			old := t.txLoadValue(tx, a)
			t.xacquireNested(tx, a, old+delta)
			return old
		}
		return t.FetchAdd(a, delta)
	}
	t.Step(t.m.cfg.Costs.RMW + t.m.cfg.Costs.Begin)
	old, tx := t.xacquireStart(a, 0)
	tx.elidedVal = old + delta
	return old
}

// xreleaseEnd validates the HLE restore rule and ends the elision: if this
// transaction was begun by the XAcquire itself it commits here; if the
// elision was nested inside an RTM region (Algorithm 3 with nesting
// support), only the elision state ends and the RTM region commits later.
func (t *Thread) xreleaseEnd(tx *txState, v uint64) {
	t.trace(EvXrelEnd, tx.elidedAddr, v)
	if v != tx.elidedOld {
		t.abortNow(CauseHLERestore, 0)
	}
	if _, ok := tx.writeBuf.get(tx.elidedAddr); ok {
		// The lock word was also written as data inside the critical
		// section; keep the restored value for publication.
		tx.bufWrite(tx.elidedAddr, v)
	}
	if tx.hleOuter {
		t.commit()
		return
	}
	tx.elided = false
	tx.elidedAddr = mem.Nil
}

// XReleaseStore is an XRELEASE-prefixed store. Ending an elided region it
// validates the restore rule and commits; otherwise it is a plain store.
func (t *Thread) XReleaseStore(a mem.Addr, v uint64) {
	tx := t.tx
	if tx == nil || !tx.elided || a != tx.elidedAddr {
		t.Store(a, v)
		return
	}
	t.Step(t.m.cfg.Costs.Store)
	t.txPreAccess(tx)
	t.xreleaseEnd(tx, v)
}

// XReleaseCAS is an XRELEASE-prefixed compare-and-swap, used by the
// adjusted ticket and CLH locks (Algorithms 5 and 7): the release attempts
// to CAS the lock back to its pre-acquire state. Under elision the CAS sees
// the illusory lock value; if it succeeds and restores the original value,
// the transaction commits. A failing XReleaseCAS performs no store and the
// transaction continues.
func (t *Thread) XReleaseCAS(a mem.Addr, old, new uint64) bool {
	tx := t.tx
	if tx == nil || !tx.elided || a != tx.elidedAddr {
		return t.CAS(a, old, new)
	}
	t.Step(t.m.cfg.Costs.RMW)
	t.txPreAccess(tx)
	cur := t.txLoadValue(tx, a)
	if cur != old {
		return false
	}
	t.xreleaseEnd(tx, new)
	return true
}

// InElision reports whether the thread is inside an elided (HLE)
// transaction, i.e. the lock it "holds" was never actually written.
func (t *Thread) InElision() bool { return t.tx != nil && t.tx.elided }
