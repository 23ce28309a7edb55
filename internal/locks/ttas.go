package locks

import (
	"hle/internal/mem"
	"hle/internal/tsx"
)

// TTAS is the test-and-test-and-set spinlock of Algorithm 1: the lock is a
// single word, 0 when free, taken by an atomic swap of 1. It is unfair but
// recovers well from HLE aborts, which is why the paper uses it as the
// non-fair reference lock.
type TTAS struct {
	word mem.Addr
}

// NewTTAS allocates a TTAS lock on its own cache line.
func NewTTAS(t *tsx.Thread) *TTAS {
	l := &TTAS{word: t.AllocLines(1)}
	t.LabelLockLines(l.word, 1, "ttas-lock")
	return l
}

// Name implements Lock.
func (l *TTAS) Name() string { return "TTAS" }

// Fair implements Lock; TTAS provides no fairness.
func (l *TTAS) Fair() bool { return false }

// Prepare implements Lock; TTAS has no per-thread state.
func (l *TTAS) Prepare(t *tsx.Thread) {}

// Addr returns the lock word's simulated address (tests use this).
func (l *TTAS) Addr() mem.Addr { return l.word }

// Acquire spins until the lock reads free, then swaps 1 in.
func (l *TTAS) Acquire(t *tsx.Thread) {
	for {
		t.SpinWhile(l.word, 1)
		if t.Swap(l.word, 1) == 0 {
			return
		}
	}
}

// TryAcquire is a single test-and-set attempt.
func (l *TTAS) TryAcquire(t *tsx.Thread) bool {
	return t.Swap(l.word, 1) == 0
}

// Release stores 0.
func (l *TTAS) Release(t *tsx.Thread) {
	t.Store(l.word, 0)
}

// SpecAcquire is Algorithm 1's lock path: test, then XACQUIRE-prefixed
// test-and-set. When the swap begins an elision the returned value is the
// in-memory lock value; 0 means the elided critical section may proceed.
// If the lock was taken between the test and the swap, the thread spins
// inside the transaction on the illusory value until PAUSE aborts it —
// the doomed speculative spin Chapter 3 describes.
func (l *TTAS) SpecAcquire(t *tsx.Thread) {
	for {
		// After an abort, hardware re-executes the XACQUIRE swap
		// itself (no pre-test): it usually fails against the aborter
		// holding the lock, and the loop then spins and re-elides —
		// the recovery behaviour Chapter 3 credits TTAS with.
		if !t.ReissuePending() && !t.InTx() {
			t.SpinWhile(l.word, 1)
		}
		if t.XAcquireSwap(l.word, 1) == 0 {
			return
		}
		t.Pause()
	}
}

// SpecRelease is the XRELEASE store of Algorithm 1's unlock.
func (l *TTAS) SpecRelease(t *tsx.Thread) {
	t.XReleaseStore(l.word, 0)
}

// Held implements Lock.
func (l *TTAS) Held(t *tsx.Thread) bool {
	return t.Load(l.word) == 1
}

func (l *TTAS) heldWord() (mem.Addr, uint64, bool) { return l.word, 1, true }
