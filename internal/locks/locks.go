// Package locks implements the lock algorithms the paper studies, all
// operating on simulated memory (internal/mem) through the TSX engine
// (internal/tsx):
//
//   - TTAS: test-and-test-and-set spinlock (Algorithm 1)
//   - MCS: the queue lock of Mellor-Crummey and Scott (Algorithm 2), the
//     paper's representative of HLE-compatible fair locks
//   - Ticket: the classic ticket lock (Algorithm 4), NOT HLE-compatible
//   - AdjustedTicket: the paper's HLE-compatible ticket lock (Algorithm 5)
//   - CLH: the Craig, Landin and Hagersten queue lock (Algorithm 6), NOT
//     HLE-compatible
//   - AdjustedCLH: the paper's HLE-compatible CLH lock (Algorithm 7)
//
// Every lock offers a standard path (Acquire/Release) and a speculative
// path (SpecAcquire/SpecRelease) that issues XACQUIRE/XRELEASE operations.
// The speculative path must run inside tsx.Thread.HLERegion (or inside an
// RTM transaction for Algorithm 3's nesting mode). For the two unadjusted
// fair locks the speculative path falls back to the standard path, because
// their releases do not restore the lock word and HLE cannot be applied
// (Chapter 6).
package locks

import (
	"hle/internal/mem"
	"hle/internal/tsx"
)

// MaxThreads bounds per-thread lock state (matches the TSX engine's
// 64-thread limit).
const MaxThreads = 64

// Lock is a mutual-exclusion lock living in simulated memory.
type Lock interface {
	// Name identifies the algorithm in reports ("TTAS", "MCS", ...).
	Name() string
	// Fair reports whether the lock provides FIFO fairness.
	Fair() bool
	// Prepare allocates thread-local state (queue nodes) for t. It must
	// be called once per thread, outside any transaction, before the
	// thread first uses the lock. Idempotent.
	Prepare(t *tsx.Thread)
	// Acquire takes the lock non-speculatively.
	Acquire(t *tsx.Thread)
	// TryAcquire makes one non-speculative acquisition attempt, the
	// software analogue of HLE's re-issued acquiring write. For queue
	// locks the re-issued write enqueues the thread, which then must
	// wait its turn, so TryAcquire blocks and returns true; for TTAS it
	// is a single test-and-set.
	TryAcquire(t *tsx.Thread) bool
	// Release exits the standard (non-speculative) critical section.
	Release(t *tsx.Thread)
	// SpecAcquire enters the critical section with lock elision
	// (XACQUIRE). Must execute within tsx.Thread.HLERegion.
	SpecAcquire(t *tsx.Thread)
	// SpecRelease exits the critical section entered by SpecAcquire
	// (XRELEASE): it commits the elision or releases the really-held
	// lock, whichever applies.
	SpecRelease(t *tsx.Thread)
	// Held reports whether the lock is observably taken. Inside a
	// transaction this places the lock state in the read set, which is
	// exactly what the SLR and SCM schemes need.
	Held(t *tsx.Thread) bool
}

// WaitWhileHeld pauses while l is held, checking at most rounds times
// unless rounds is negative:
//
//	for i := 0; (rounds < 0 || i < rounds) && l.Held(t); i++ {
//		t.Pause()
//	}
//
// A lock whose Held is one load of one word waits through tsx.Thread.Spin.
func WaitWhileHeld(t *tsx.Thread, l Lock, rounds int) {
	if w, ok := l.(heldWord); ok {
		a, v, eq := w.heldWord()
		t.Spin(a, v, eq, rounds)
		return
	}
	for i := 0; (rounds < 0 || i < rounds) && l.Held(t); i++ {
		t.Pause()
	}
}

// heldWord is implemented by the locks whose Held is a single load: the
// lock is held while the word at a equals v (eq) or differs from it (!eq).
type heldWord interface {
	heldWord() (a mem.Addr, v uint64, eq bool)
}

// Maker constructs a lock in the simulated memory reachable from t.
// Construction must happen outside any transaction.
type Maker func(t *tsx.Thread) Lock

// MakerByName returns the constructor for the named lock, or nil.
func MakerByName(name string) Maker {
	switch name {
	case "TTAS":
		return func(t *tsx.Thread) Lock { return NewTTAS(t) }
	case "MCS":
		return func(t *tsx.Thread) Lock { return NewMCS(t) }
	case "Ticket":
		return func(t *tsx.Thread) Lock { return NewTicket(t) }
	case "AdjTicket":
		return func(t *tsx.Thread) Lock { return NewAdjustedTicket(t) }
	case "CLH":
		return func(t *tsx.Thread) Lock { return NewCLH(t) }
	case "AdjCLH":
		return func(t *tsx.Thread) Lock { return NewAdjustedCLH(t) }
	case "BackoffTTAS":
		return func(t *tsx.Thread) Lock { return NewBackoffTTAS(t) }
	}
	return nil
}
