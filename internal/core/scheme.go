// Package core implements the paper's lock-elision schemes — its primary
// contribution. Each scheme executes a critical section over a main lock:
//
//   - Standard: plain non-speculative locking (the paper's baseline).
//   - HLE: Haswell's hardware lock elision as-is (Figure 1.1 / Algorithm 2
//     behaviour), which suffers the Chapter 3 avalanche effect, and the
//     same scheme with lazy lock subscription (HLE-lazy) or on the
//     Chapter 7 hardware extension (HLE-HWExt).
//   - RTMScheme: every RTM-based scheme, built from one speculative
//     attempt and one recovery loop. The attempt reads the main lock at
//     entry (RTM-LE, HLE-SCM), at commit (SLR), through a nested
//     XACQUIRE (HLE-SCM-ideal, Algorithm 3 verbatim) or through a lazy
//     commit-time predicate (RTM-LE-lazy). After an abort, elide
//     re-acquires the lock once non-speculatively as HLE does; remove
//     retries a bounded number of times, then takes the lock (SLR); and
//     manage serializes aborters on an auxiliary lock and rejoins the
//     speculative run (software-assisted conflict management, Algorithm
//     3), with the aux lock striped by conflict address in the paper's
//     future-work refinement (HLE-SCM-multi).
//   - Adaptive: a runtime controller that switches one lock between the
//     elide, manage and remove loops.
//
// A scheme's Run returns per-operation accounting (attempts, speculative or
// not) that reproduces the paper's "average execution attempts per critical
// section" and "fraction of non-speculative execution" plots.
package core

import (
	"hle/internal/locks"
	"hle/internal/tsx"
)

// Result describes how one critical-section execution completed.
type Result struct {
	// Attempts is the number of times the critical section started
	// executing (aborted speculative tries plus the completing run) —
	// the paper's (A+N+S)/(N+S) numerator contribution.
	Attempts uint64
	// Spec reports whether the completing run was speculative.
	Spec bool
}

// OpStats aggregates Results.
type OpStats struct {
	Ops      uint64 // completed operations (N+S)
	Spec     uint64 // operations completing speculatively (S)
	NonSpec  uint64 // operations completing non-speculatively (N)
	Attempts uint64 // total execution attempts (A+N+S)
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Ops += other.Ops
	s.Spec += other.Spec
	s.NonSpec += other.NonSpec
	s.Attempts += other.Attempts
}

// AttemptsPerOp returns the paper's "average execution attempts per
// critical section".
func (s OpStats) AttemptsPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Attempts) / float64(s.Ops)
}

// NonSpecFraction returns the fraction of operations completing
// non-speculatively.
func (s OpStats) NonSpecFraction() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.NonSpec) / float64(s.Ops)
}

func (s *OpStats) record(r Result) {
	s.Ops++
	s.Attempts += r.Attempts
	if r.Spec {
		s.Spec++
	} else {
		s.NonSpec++
	}
}

// Scheme executes critical sections over a main lock.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Setup prepares per-thread state (lock queue nodes); call once per
	// thread, outside any transaction, before the first Run.
	Setup(t *tsx.Thread)
	// Run executes cs as a critical section and returns how it
	// completed. cs may be re-executed after speculative aborts, so it
	// must be a pure function of simulated memory (true of all the
	// benchmarks: rollback restores their state exactly).
	Run(t *tsx.Thread, cs func()) Result
	// Stats returns the per-thread accumulated operation statistics.
	Stats(threadID int) OpStats
	// TotalStats sums statistics across threads.
	TotalStats() OpStats
}

// SchemeStats provides the per-thread stats plumbing shared by all
// schemes. It is exported so composite schemes built outside this package
// (the sharded store) can account operations the same way.
type SchemeStats struct {
	perThread [locks.MaxThreads]OpStats
}

// statsBase is the embedded name this package's schemes use.
type statsBase = SchemeStats

func (b *SchemeStats) record(id int, r Result) { b.perThread[id].record(r) }

// Record accumulates one completed critical-section result for a thread.
func (b *SchemeStats) Record(id int, r Result) { b.record(id, r) }

// Stats implements Scheme.
func (b *SchemeStats) Stats(threadID int) OpStats { return b.perThread[threadID] }

// Reset zeroes the statistics. Promoted into every scheme of this package,
// it returns the scheme to the state its constructor left it in: the
// statistics are a scheme's only Go-side state that running changes
// (Adaptive, which also keeps a controller, overrides it). The locks'
// state lives in simulated memory and in the lock values, which are the
// caller's to restore — the model checker's replay rigs restore both and
// then Reset, instead of constructing a scheme per replay.
func (b *SchemeStats) Reset() { clear(b.perThread[:]) }

// TotalStats implements Scheme.
func (b *SchemeStats) TotalStats() OpStats {
	var total OpStats
	for i := range b.perThread {
		total.Add(b.perThread[i])
	}
	return total
}

// Standard is plain non-speculative locking.
type Standard struct {
	statsBase
	lock locks.Lock
}

// NewStandard wraps lock in a non-speculative scheme.
func NewStandard(lock locks.Lock) *Standard { return &Standard{lock: lock} }

// Name implements Scheme.
func (s *Standard) Name() string { return "Standard" }

// Setup implements Scheme.
func (s *Standard) Setup(t *tsx.Thread) { s.lock.Prepare(t) }

// Run implements Scheme.
func (s *Standard) Run(t *tsx.Thread, cs func()) Result {
	s.lock.Acquire(t)
	t.MarkSerial(true)
	cs()
	t.MarkSerial(false)
	s.lock.Release(t)
	r := Result{Attempts: 1, Spec: false}
	s.record(t.ID, r)
	return r
}

// NoLock executes the critical section with no synchronization at all. It
// is only meaningful single-threaded and provides the normalization
// baseline of Figure 5.1 ("throughput of a single thread with no locking").
type NoLock struct {
	statsBase
}

// NewNoLock returns the unsynchronized baseline scheme.
func NewNoLock() *NoLock { return &NoLock{} }

// Name implements Scheme.
func (s *NoLock) Name() string { return "NoLock" }

// Setup implements Scheme.
func (s *NoLock) Setup(t *tsx.Thread) {}

// Run implements Scheme.
func (s *NoLock) Run(t *tsx.Thread, cs func()) Result {
	cs()
	r := Result{Attempts: 1, Spec: false}
	s.record(t.ID, r)
	return r
}

// HLE runs critical sections under Haswell's hardware lock elision exactly
// as Figure 1.1 applies it: the lock's speculative path issues XACQUIRE /
// XRELEASE, and an abort re-executes the acquiring store non-transactionally
// — acquiring the lock for real and aborting every concurrent elision.
// Its variants differ only in the subscription mode Setup selects on each
// thread (NewHLELazy, NewHLELazyNaive, NewHLEHWExt).
type HLE struct {
	statsBase
	lock locks.Lock
	name string
	sub  tsx.Subscription
}

// NewHLE wraps lock in plain hardware lock elision.
func NewHLE(lock locks.Lock) *HLE { return &HLE{lock: lock, name: "HLE"} }

// NewHLEHWExt wraps lock in hardware lock elision on the paper's Chapter 7
// hardware extension (tsx.SubHWExt), which distinguishes conflicts on the
// elided lock cache line from conflicts on data lines, entirely in
// hardware and with no cache-coherence protocol changes:
//
//   - the elided lock line is not placed in the read set (unless accessed
//     as data), so a non-speculative lock acquisition does not abort
//     speculative threads;
//   - a speculative thread keeps running as long as it accesses lines
//     already in its read/write sets ("data already in its caches");
//   - on a miss (a new line, read or write) while the lock is held, the
//     thread suspends until the lock is released, then resumes. Data
//     conflicts abort it as usual, which is what makes the scheme safe
//     against the Lemma 1 inconsistency.
func NewHLEHWExt(lock locks.Lock) *HLE {
	return &HLE{lock: lock, name: "HLE-HWExt", sub: tsx.SubHWExt}
}

// Name implements Scheme.
func (s *HLE) Name() string { return s.name }

// Setup implements Scheme.
func (s *HLE) Setup(t *tsx.Thread) {
	t.SetSubscription(s.sub)
	s.lock.Prepare(t)
}

// Run implements Scheme.
func (s *HLE) Run(t *tsx.Thread, cs func()) Result {
	var r Result
	t.HLERegion(func() {
		r.Attempts++
		s.lock.SpecAcquire(t)
		r.Spec = t.InElision()
		if !r.Spec {
			// The re-issued acquire took the lock for real: this run
			// is serialized, not speculative (profiling annotation).
			t.MarkSerial(true)
		}
		cs()
		if !r.Spec {
			t.MarkSerial(false)
		}
		s.lock.SpecRelease(t)
	})
	s.record(t.ID, r)
	return r
}
