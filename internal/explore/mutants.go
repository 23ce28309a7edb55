package explore

import (
	"hle/internal/core"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// The seeded mutants: deliberately broken variants of the paper's
// components. Each is a bug class the literature documents, each is
// reachable only under specific interleavings, and each must be caught by
// the checker with a minimal counterexample schedule — the mutation tests
// that prove the checker has teeth.
const (
	// MutantCLHBlindRelease replaces the adjusted CLH unlock's
	// CAS-restore (Algorithm 7) with a blind store of the predecessor:
	// correct when no requester arrived, but a requester that enqueued
	// between the holder's read and store is unlinked from the queue and
	// spins on a flag nobody will ever clear.
	MutantCLHBlindRelease = "clh-blind-release"
	// MutantSCMLazy removes SCM's main-lock subscription and its
	// aux-lock serialization: the speculative path never reads the main
	// lock (lazy subscription), so a transaction can run — and commit —
	// in the middle of a non-speculative critical section.
	MutantSCMLazy = "scm-lazy-subscription"
	// MutantHWExtNoSuspend (tsx.SubHWExtNoSuspend) removes the
	// Chapter 7 extension's suspend-on-miss: an elided reader expands
	// its footprint mid-critical-section of a real lock holder and can
	// commit an inconsistent snapshot — exactly the Lemma 1 property.
	MutantHWExtNoSuspend = "hwext-no-suspend"
	// MutantLazySkipCheck (tsx.SubLazySkipCheck) removes the
	// fixed lazy-subscription pipeline's commit-time lock check entirely:
	// the transaction never subscribes, so it can commit in the middle of
	// a pessimistic holder's critical section.
	MutantLazySkipCheck = "lazy-skip-commit-check"
	// MutantLazyDrainFirst (tsx.SubLazyDrainFirst) breaks the
	// check's ordering against the write-set drain: validation runs after
	// publication, so a failed check fires its abort too late — the
	// published writes stand and the retry re-applies them.
	MutantLazyDrainFirst = "lazy-drain-before-check"
	// MutantLazyNoWindowAbort (tsx.SubLazyNoWindowAbort) removes the
	// commit-window abort: a pessimistic acquirer taking the lock between
	// the (passed) check and the drain no longer aborts the commit.
	MutantLazyNoWindowAbort = "lazy-no-window-abort"
)

// Mutants returns the seeded-fault configurations, each expected to fail
// with a deterministic minimal counterexample. One operation per thread
// keeps the counterexamples short; the bugs all fire on the first
// operation.
func Mutants() []Config {
	return []Config{
		{Scheme: "Standard", Lock: "AdjCLH", Threads: 2, Ops: 1, Mutant: MutantCLHBlindRelease},
		{Scheme: "HLE-SCM", Lock: "TTAS", Threads: 2, Ops: 1, Mutant: MutantSCMLazy},
		{Scheme: "HLE-HWExt", Lock: "TTAS", Threads: 2, Ops: 1, Mutant: MutantHWExtNoSuspend},
		{Scheme: "RTM-LE-lazy", Lock: "TTAS", Threads: 2, Ops: 1, Mutant: MutantLazySkipCheck},
		{Scheme: "RTM-LE-lazy", Lock: "TTAS", Threads: 2, Ops: 1, Mutant: MutantLazyDrainFirst},
		{Scheme: "RTM-LE-lazy", Lock: "TTAS", Threads: 2, Ops: 1, Mutant: MutantLazyNoWindowAbort},
	}
}

// mutantHardware maps the hardware mutants to the faulty subscription
// mode that seeds their fault. Each thread's body selects it right after
// the scheme's Setup, replacing the sound mode the Setup chose.
var mutantHardware = map[string]tsx.Subscription{
	MutantHWExtNoSuspend:    tsx.SubHWExtNoSuspend,
	MutantLazySkipCheck:     tsx.SubLazySkipCheck,
	MutantLazyDrainFirst:    tsx.SubLazyDrainFirst,
	MutantLazyNoWindowAbort: tsx.SubLazyNoWindowAbort,
}

// brokenCLH is the adjusted CLH lock of Algorithm 7 with the
// MutantCLHBlindRelease fault: Release stores the predecessor into tail
// unconditionally instead of CAS-ing it back only when the holder's node
// is still the tail.
type brokenCLH struct {
	tail   mem.Addr
	myNode [locks.MaxThreads]mem.Addr
	pred   [locks.MaxThreads]mem.Addr
}

func newBrokenCLH(t *tsx.Thread) *brokenCLH {
	l := &brokenCLH{tail: t.AllocLines(1)}
	dummy := t.AllocLines(1)
	t.LabelLockLines(l.tail, 1, "brokenclh-tail")
	t.LabelLockLines(dummy, 1, "brokenclh-node")
	t.Store(l.tail, uint64(dummy))
	return l
}

func (l *brokenCLH) Name() string { return "BrokenAdjCLH" }

func (l *brokenCLH) Fair() bool { return true }

func (l *brokenCLH) Prepare(t *tsx.Thread) {
	if l.myNode[t.ID] == mem.Nil {
		l.myNode[t.ID] = t.AllocLines(1)
		t.LabelLockLines(l.myNode[t.ID], 1, "brokenclh-node")
	}
}

func (l *brokenCLH) Acquire(t *tsx.Thread) {
	n := l.myNode[t.ID]
	t.Store(n, 1)
	pred := mem.Addr(t.Swap(l.tail, uint64(n)))
	l.pred[t.ID] = pred
	for t.Load(pred) == 1 {
		t.Pause()
	}
}

func (l *brokenCLH) TryAcquire(t *tsx.Thread) bool {
	l.Acquire(t)
	return true
}

// Release is the seeded fault: a blind store of pred into tail. When a
// requester has already swapped its node into tail, this erases it from
// the queue; its flag is never cleared and it waits forever.
func (l *brokenCLH) Release(t *tsx.Thread) {
	t.Store(l.tail, uint64(l.pred[t.ID]))
}

func (l *brokenCLH) SpecAcquire(t *tsx.Thread) {
	n := l.myNode[t.ID]
	t.Store(n, 1)
	pred := mem.Addr(t.XAcquireSwap(l.tail, uint64(n)))
	l.pred[t.ID] = pred
	for t.Load(pred) == 1 {
		t.Pause()
	}
}

func (l *brokenCLH) SpecRelease(t *tsx.Thread) {
	if t.XReleaseCAS(l.tail, uint64(l.myNode[t.ID]), uint64(l.pred[t.ID])) {
		return
	}
	t.Store(l.tail, uint64(l.pred[t.ID]))
}

func (l *brokenCLH) Held(t *tsx.Thread) bool {
	return t.Load(mem.Addr(t.Load(l.tail))) == 1
}

// lazySCM is HLE-SCM with the MutantSCMLazy fault: the transaction never
// subscribes to the main lock and aborted threads never serialize on the
// auxiliary lock — they retry immediately and fall back to the main lock
// after one failed attempt (the short fuse keeps counterexamples short).
type lazySCM struct {
	main locks.Lock
}

func newLazySCM(main locks.Lock) *lazySCM { return &lazySCM{main: main} }

func (s *lazySCM) Name() string { return "HLE-SCM-lazy" }

func (s *lazySCM) Setup(t *tsx.Thread) { s.main.Prepare(t) }

func (s *lazySCM) Run(t *tsx.Thread, cs func()) core.Result {
	var r core.Result
	committed, _ := t.RTM(func() {
		r.Attempts++
		// Fault: no s.main.Held subscription — the transaction cannot
		// see a concurrent non-speculative holder.
		cs()
	})
	if committed {
		r.Spec = true
	} else {
		// Fault: no aux-lock serialization, no held-wait; straight to
		// the main lock.
		r.Attempts++
		s.main.Acquire(t)
		cs()
		s.main.Release(t)
	}
	return r
}

func (s *lazySCM) Stats(int) core.OpStats { return core.OpStats{} }

// Reset is a no-op: the scheme keeps no statistics.
func (s *lazySCM) Reset() {}

func (s *lazySCM) TotalStats() core.OpStats { return core.OpStats{} }
