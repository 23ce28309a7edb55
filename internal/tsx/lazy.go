package tsx

import "hle/internal/mem"

// This file implements lazy lock subscription: deferring the elided lock
// word's read-set entry from transaction begin to commit time. Eager
// subscription (the paper's scheme, Haswell's HLE) puts the lock line in
// the read set at XACQUIRE, so every pessimistic acquisition aborts every
// running speculation — the conflict that seeds the Chapter 3 avalanche.
// Lazy subscription removes that footprint for the transaction's whole
// body and instead checks the lock once, at commit.
//
// Done naively, that is unsound. Dice et al. ("Hardware extensions to
// make lazy subscription safe") catalog the hazards, two of which this
// simulator can express and internal/explore can find:
//
//  (a) a transaction reads state mid-mutation by a pessimistic lock
//      holder and, with no lock line in its read set, commits the
//      inconsistent observation;
//  (b) a transaction's commit-time drain races the holder's critical
//      section — the published writes interleave with (and are partly
//      overwritten by) the holder's own stores.
//
// Their fixes, both modeled here and on by default under SubLazy:
//
//  1. the commit-time lock check is ordered BEFORE the write-set drain
//     (and the check itself subscribes the lock line), and
//  2. a write that dooms the transaction during the commit window —
//     including a pessimistic acquirer's lock store, now visible through
//     the fresh subscription — aborts the commit instead of being
//     ignored.
//
// The faulty lazy modes (SubLazyNaive and the single-fault variants)
// disable the fixes, so the model checker can reproduce the hazards and
// prove the mutation tests sharp; the naive one also backs the ext-lazy
// sweep's lazy-naive points, which count the updates it loses.

// SetSubscription selects the subscription mode of this thread's
// subsequent transactions (eager until set; every Run starts its threads
// eager). Schemes call it from Setup: the scheme knows how its lock
// elides, so the mode is a scheme property, not a machine property. It
// must not be called inside a transaction.
func (t *Thread) SetSubscription(s Subscription) {
	if t.tx != nil {
		panic("tsx: SetSubscription inside a transaction")
	}
	t.sub = s
}

// LazySubscription reports whether this thread's transactions defer lock
// subscription to commit.
func (t *Thread) LazySubscription() bool { return t.sub >= SubLazy }

// LazySubscribe registers check as the current transaction's lock
// subscription predicate — the RTM analogue of HLE's elided lock word.
// An RTM-based elision scheme passes a closure testing that its lock is
// free (for example func() bool { return !lock.Held(t) }).
//
// Under eager subscription the predicate is evaluated immediately: its
// loads put the lock's lines in the read set and a false result aborts
// with CauseSubscription — begin-time subscription, exactly Algorithm 2's
// subscribe-then-check. Under lazy subscription the predicate is saved
// and evaluated by the commit pipeline instead (see commitLazy); its
// loads then subscribe the lock lines at commit time.
func (t *Thread) LazySubscribe(check func() bool) {
	tx := t.tx
	if tx == nil {
		panic("tsx: LazySubscribe outside a transaction")
	}
	if !t.LazySubscription() {
		if !check() {
			t.abortNow(CauseSubscription, 0)
		}
		return
	}
	tx.lazyCheck = check
}

// lazySubTouch subscribes line for commit-window conflict detection
// without consuming read-set capacity: the Dice et al. fix is dedicated
// commit hardware — a comparator watching the lock's cache line during
// the commit sequence — not an ordinary read-set entry, so it neither
// counts against ReadSetLines nor participates in the eviction model. It
// still issues the coherence request and sets the reader bit, so a
// pessimistic acquirer's lock store during the window dooms the
// transaction exactly as a read-set hit would.
func (t *Thread) lazySubTouch(tx *txState, line int) {
	lm := t.m.Mem.LineByIndex(line)
	bit := t.bit
	if (lm.Readers|lm.Writers)&bit != 0 {
		return // already tracked
	}
	t.m.requestLine(line, t, false)
	t.trace(EvAddRead, mem.LineAddr(line), lm.Readers)
	lm.Readers |= bit
	tx.readLines = append(tx.readLines, line)
}

// lazySubCheck performs the commit-time lock subscription: the elided
// lock line (HLE) joins the conflict-monitored set (via the dedicated
// commit comparator, lazySubTouch) and its current value must still be
// the pre-XACQUIRE value; a registered RTM predicate is evaluated (its
// loads subscribe normally). Failure aborts with CauseSubscription.
func (t *Thread) lazySubCheck(tx *txState) {
	if tx.elided {
		t.lazySubTouch(tx, mem.LineOf(tx.elidedAddr))
		if t.m.Mem.Read(tx.elidedAddr) != tx.elidedOld {
			t.abortNow(CauseSubscription, 0)
		}
	}
	if tx.lazyCheck != nil && !tx.lazyCheck() {
		t.abortNow(CauseSubscription, 0)
	}
}

// commitLazy is the commit pipeline for a transaction holding a lazy
// subscription obligation. Unlike the eager commit it is NOT atomic: the
// Commit cost is charged mid-pipeline, opening a scheduler window between
// the subscription check and the write-set drain — the window whose
// hazards the two Dice et al. fixes close. Under SubLazy this pipeline is
// the fixed (safe) design; the faulty lazy modes each drop a fix.
func (t *Thread) commitLazy(tx *txState) {
	sub := t.sub
	checkAfterDrain := sub == SubLazyNaive || sub == SubLazyDrainFirst
	if !checkAfterDrain && sub != SubLazySkipCheck {
		// Fix 1: subscription check ordered before the drain. The check
		// itself yields no scheduler grants for HLE (the touch and the
		// value test are one atomic step); an RTM predicate's loads may
		// yield, but every line they touch is subscribed as they go, so
		// the window-abort check below covers the gap.
		t.lazySubCheck(tx)
	}
	// The drain occupies the commit window: charge the commit cost
	// before publishing, yielding the scheduler mid-commit.
	t.Step(t.m.cfg.Costs.Commit)
	if tx.doomed && sub != SubLazyNaive && sub != SubLazyNoWindowAbort {
		// Fix 2: a write arriving during the window — a pessimistic
		// acquirer's lock store (visible through the fresh subscription)
		// or any data conflict — aborts the commit.
		t.abortNow(CauseConflict, 0)
	}
	for _, a := range tx.writeOrder {
		v, _ := tx.writeBuf.get(a)
		t.trace(EvPublish, a, v)
		t.m.Mem.Write(a, v)
	}
	if checkAfterDrain {
		// Naive ordering: the subscription is validated only as commit
		// completes, AFTER the drain. A failure here fires the abort too
		// late — the published writes stand, and the program's retry
		// re-applies them. This is the unsound order the fixes exist for.
		t.lazySubCheck(tx)
	}
	for _, f := range tx.frees {
		t.m.Mem.CheckFree(f.addr, f.n, f.lines)
		t.cachePut(f)
	}
	t.clearLineBits(tx)
	t.tx = nil
	t.m.live &^= t.bit
	t.trace(EvCommit, mem.Nil, uint64(tx.accesses))
	if o := t.m.obs; o != nil {
		o.TxCommit(t.ID, t.Clock(), tx.beginClock, tx.accesses)
	}
	t.Stats.Committed++
	t.Stats.CommittedReadLines += uint64(len(tx.readLines))
	t.Stats.CommittedWriteLines += uint64(len(tx.writeLines))
	t.Stats.CommittedAccesses += uint64(tx.accesses)
}
