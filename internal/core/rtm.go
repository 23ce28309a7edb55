package core

import (
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// abortCodeLockHeld is the XABORT immediate used when a speculative run
// observes the main lock held ("XABORT('non-speculative run')" in the
// paper's implementation remark).
const abortCodeLockHeld = 0xA1

// DefaultMaxRetries is the paper's §5.1 tuning: the auxiliary-lock holder
// retries speculatively 10 times before giving up and taking the main lock.
const DefaultMaxRetries = 10

// DefaultSLRAttempts is optimistic SLR's speculative attempt budget (§5.1).
const DefaultSLRAttempts = 10

// SCMConfig tunes software-assisted conflict management.
type SCMConfig struct {
	// MaxRetries is how many times the aux-lock holder rejoins the
	// speculative run before acquiring the main lock non-speculatively.
	// Zero selects DefaultMaxRetries.
	MaxRetries int
	// Ideal selects Algorithm 3 verbatim, nesting an HLE elision inside
	// the RTM transaction so the critical section keeps the
	// lock-is-held illusion. Its Setup turns on the nested elision real
	// Haswell lacks (tsx.Thread.SetNestedElision); the default (false)
	// uses the paper's implementation remark — read the main lock inside
	// the RTM transaction and XABORT if it is held.
	Ideal bool
}

func (c *SCMConfig) maxRetries() int {
	if c.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

// lockCheck is where a speculative attempt reads the main lock.
type lockCheck uint8

const (
	// checkEntry reads the lock before the critical section and aborts
	// if it is held: HLE's policy expressed with RTM, and Algorithm 3's
	// implementation remark.
	checkEntry lockCheck = iota
	// checkCommit reads it only after the critical section, just before
	// commit: SLR (Chapter 5).
	checkCommit
	// checkNested elides it with an XACQUIRE nested in the RTM
	// transaction: Algorithm 3 verbatim (setup turns nesting on).
	checkNested
	// checkLazy registers a lock-free predicate that the engine
	// evaluates at commit: lazy subscription.
	checkLazy
)

// rtm is what every RTM-based scheme is made of: one speculative attempt
// (try), whose lock check decides where it reads the main lock, and three
// recovery loops (elide, remove, manage) that decide what an abort does
// next.
type rtm struct {
	main  locks.Lock
	check lockCheck
	// sub is checkLazy's subscription mode: tsx.SubLazy, or the naive
	// pipeline for the naive-lazy scheme.
	sub tsx.Subscription
	// feed, when non-nil, sees every commit, abort and non-speculative
	// completion — the adaptive controller's input.
	feed *obs.Feed
	// lazy holds checkLazy's per-thread predicate over lazyT, the thread
	// the ID's latest setup ran on. Each predicate is bound once, on the
	// ID's first setup, so neither the transactional hot path nor a reused
	// scheme's setup allocates.
	lazy  [locks.MaxThreads]func() bool
	lazyT [locks.MaxThreads]*tsx.Thread

	// manage's knobs: the aux locks conflicting threads serialize on,
	// the aux holder's retry budget, whether an abort the hardware marks
	// non-retryable gives up at once, and the pause bound on the wait
	// for a held main lock (negative: unbounded).
	aux      []locks.Lock
	retries  int
	hardStop bool
	heldWait int
}

func (a *rtm) setup(t *tsx.Thread) {
	switch a.check {
	case checkNested:
		t.SetNestedElision(true)
	case checkLazy:
		t.SetSubscription(a.sub)
		id := t.ID
		a.lazyT[id] = t
		if a.lazy[id] == nil {
			a.lazy[id] = func() bool { return !a.main.Held(a.lazyT[id]) }
		}
	}
	a.main.Prepare(t)
	for _, l := range a.aux {
		l.Prepare(t)
	}
}

// try runs cs once as an RTM transaction, counting the attempt in r.
func (a *rtm) try(t *tsx.Thread, cs func(), r *Result) (bool, tsx.Status) {
	committed, st := t.RTM(func() {
		r.Attempts++
		switch a.check {
		case checkEntry:
			// Put the lock in the read set and bail if it is taken.
			if a.main.Held(t) {
				t.Abort(abortCodeLockHeld)
			}
			cs()
		case checkCommit:
			cs()
			if a.main.Held(t) {
				t.Abort(abortCodeLockHeld)
			}
		case checkNested:
			a.main.SpecAcquire(t)
			cs()
			a.main.SpecRelease(t)
		case checkLazy:
			t.LazySubscribe(a.lazy[t.ID])
			cs()
		}
	})
	r.Spec = committed
	if a.feed != nil {
		if committed {
			a.feed.Commit(t.Clock())
		} else {
			a.feedAbort(t, st)
		}
	}
	return committed, st
}

// feedAbort classifies one aborted attempt into the feed. Injected aborts
// present as spurious (Status does not expose injection), so chaos storms
// are indistinguishable from real spurious pressure — exactly what a
// production controller would see.
func (a *rtm) feedAbort(t *tsx.Thread, st tsx.Status) {
	lockLine := false
	if st.Cause == tsx.CauseConflict {
		lockLine = t.Machine().IsLockLine(mem.LineOf(st.ConflictAddr))
	}
	a.feed.Abort(t.Clock(), obs.ClassOf(st.Cause, lockLine, false))
}

// locked runs cs under the main lock, which the caller has just acquired,
// marked serial for the profiler.
func (a *rtm) locked(t *tsx.Thread, cs func(), r *Result) {
	r.Attempts++
	t.MarkSerial(true)
	cs()
	t.MarkSerial(false)
	a.main.Release(t)
	if a.feed != nil {
		a.feed.SerialOp(t.Clock())
	}
}

// elide is HLE's recovery: after each abort, one non-speculative
// acquisition attempt — the RTM image of HLE re-issuing the acquiring
// write, which for a queue lock enqueues and waits. An entry check also
// mirrors the lock's own XACQUIRE arrival: a TTAS tests the lock before
// eliding, so the attempt waits for it to look free first; a queue lock's
// swap runs unconditionally, so a thread arriving at a held lock
// speculates, aborts and enqueues — which is why RTM-based elision
// inherits the MCS avalanche exactly as the HLE prefix does (Figure 3.5b).
func (a *rtm) elide(t *tsx.Thread, cs func()) Result {
	var r Result
	for {
		if a.check == checkEntry && !a.main.Fair() {
			locks.WaitWhileHeld(t, a.main, -1)
		}
		if ok, _ := a.try(t, cs, &r); ok {
			return r
		}
		if a.main.TryAcquire(t) {
			a.locked(t, cs, &r)
			return r
		}
	}
}

// remove is SLR's recovery: up to n attempts, stopping early when the
// abort status says the transaction is unlikely ever to succeed (§5.1:
// capacity overflows clear the retry bit), then the real lock.
func (a *rtm) remove(t *tsx.Thread, cs func(), n int) Result {
	var r Result
	for i := 0; i < n; i++ {
		ok, st := a.try(t, cs, &r)
		if ok {
			return r
		}
		if !st.MayRetry {
			break
		}
	}
	a.main.Acquire(t)
	a.locked(t, cs, &r)
	return r
}

// manage is Algorithm 3, software-assisted conflict management: an
// aborted thread serializes on an aux lock — without taking the main lock
// — and rejoins the speculative run, so non-conflicting threads keep
// speculating and the avalanche never forms. The aux lock is chosen by
// the conflicting line, so with several aux locks only threads fighting
// over the same data serialize together. After the retry budget the aux
// holder takes the main lock, uncontended among SCM threads.
func (a *rtm) manage(t *tsx.Thread, cs func()) Result {
	var r Result
	retries := 0
	held := -1 // index of the aux lock this thread holds
	for {
		ok, st := a.try(t, cs, &r)
		if ok {
			break
		}
		if held >= 0 {
			retries++
		} else {
			held = 0
			if st.Cause == tsx.CauseConflict {
				held = int(uint64(st.ConflictAddr) % uint64(len(a.aux)))
			}
			a.aux[held].Acquire(t)
			// Conflicting threads are serialized from here until the
			// aux release; speculation resumed under the aux lock
			// still profiles as speculation (it outranks the mark).
			t.MarkSerial(true)
		}
		if retries >= a.retries || (a.hardStop && !st.MayRetry) {
			r.Attempts++
			a.main.Acquire(t)
			cs()
			a.main.Release(t)
			if a.feed != nil {
				a.feed.SerialOp(t.Clock())
			}
			break
		}
		if st.Cause == tsx.CauseExplicit && st.Code == abortCodeLockHeld {
			// A thread that gave up holds the main lock; eliding is
			// futile until it releases (Intel's recommended elision
			// retry discipline).
			locks.WaitWhileHeld(t, a.main, a.heldWait)
		}
	}
	if held >= 0 {
		t.MarkSerial(false)
		a.aux[held].Release(t)
	}
	return r
}

// recovery names the loop an RTMScheme runs after an abort.
type recovery uint8

const (
	recoverElide recovery = iota
	recoverRemove
	recoverManage
)

// RTMScheme is every RTM-based scheme of the paper: a lock check (where
// the speculative run reads the main lock) plus a recovery policy (what
// an abort does next). Its constructors pick the pairs the paper
// evaluates.
type RTMScheme struct {
	statsBase
	rtm
	name     string
	recovery recovery
	attempts int // remove's attempt budget
}

// Name implements Scheme.
func (s *RTMScheme) Name() string { return s.name }

// Setup implements Scheme.
func (s *RTMScheme) Setup(t *tsx.Thread) { s.setup(t) }

// Run implements Scheme.
func (s *RTMScheme) Run(t *tsx.Thread, cs func()) Result {
	var r Result
	switch s.recovery {
	case recoverElide:
		r = s.elide(t, cs)
	case recoverRemove:
		r = s.remove(t, cs, s.attempts)
	default:
		r = s.manage(t, cs)
	}
	s.record(t.ID, r)
	return r
}

// NewRTMLE is lock elision implemented with the RTM instructions instead
// of the HLE prefixes, mimicking HLE's policy exactly: speculate with the
// lock in the read set, and on an abort re-issue the acquisition
// non-transactionally. The paper measures with this mechanism because
// HLE's re-issued XACQUIRE is opaque to software, making aborts
// uncountable (Chapter 3, Remark), after verifying the two perform
// comparably (Figure 3.5).
func NewRTMLE(lock locks.Lock) *RTMScheme {
	return &RTMScheme{name: "RTM-LE", rtm: rtm{main: lock, check: checkEntry}, recovery: recoverElide}
}

// NewRTMLELazy is RTM-LE with lazy lock subscription: the transaction
// starts unconditionally and registers the lock-free predicate, which the
// engine evaluates at commit, where its loads subscribe the lock's lines.
// A thread arriving at a held lock speculates anyway and only discovers
// the holder at commit — fewer aborts when critical sections do not
// overlap in time, a guaranteed CauseSubscription abort when they do.
func NewRTMLELazy(lock locks.Lock) *RTMScheme {
	return &RTMScheme{name: "RTM-LE-lazy", rtm: rtm{main: lock, check: checkLazy, sub: tsx.SubLazy}, recovery: recoverElide}
}

// NewRTMLELazyNaive is RTM-LE-lazy on the naive commit pipeline
// (tsx.SubLazyNaive), under RTM-LE-lazy's name; see NewHLELazyNaive.
func NewRTMLELazyNaive(lock locks.Lock) *RTMScheme {
	return &RTMScheme{name: "RTM-LE-lazy", rtm: rtm{main: lock, check: checkLazy, sub: tsx.SubLazyNaive}, recovery: recoverElide}
}

// NewHLESCM is Algorithm 3 over main with one auxiliary lock, which the
// paper requires to be starvation-free (an MCS lock) for the scheme to
// inherit fairness. The aux holder waits for a held main lock without
// bound — safe, because only giving-up aux holders ever take it.
func NewHLESCM(main, aux locks.Lock, cfg SCMConfig) *RTMScheme {
	name, check := "HLE-SCM", checkEntry
	if cfg.Ideal {
		name, check = "HLE-SCM-ideal", checkNested
	}
	return &RTMScheme{name: name, recovery: recoverManage, rtm: rtm{main: main, check: check,
		aux: []locks.Lock{aux}, retries: cfg.maxRetries(), heldWait: -1}}
}

// NewHLESCMMulti is the refinement the paper leaves as future work
// (Chapter 4 remark): instead of one auxiliary lock grouping all
// conflicting threads, conflicting threads are divided into groups keyed
// by the conflicting cache line (exposed in the abort status — the "abort
// information provided by the hardware" of the future-work section), so
// threads that conflict on unrelated data do not serialize with each
// other. aux must contain at least one starvation-free lock.
func NewHLESCMMulti(main locks.Lock, aux []locks.Lock, cfg SCMConfig) *RTMScheme {
	if len(aux) == 0 {
		panic("core: NewHLESCMMulti requires at least one aux lock")
	}
	return &RTMScheme{name: "HLE-SCM-multi", recovery: recoverManage, rtm: rtm{main: main, check: checkEntry,
		aux: aux, retries: cfg.maxRetries(), heldWait: -1}}
}

// NewSLR is software-assisted lock removal: the critical section runs
// transactionally without touching the lock; just before committing, the
// transaction reads the lock and commits only if it is free. Unlike
// Rajwar and Goodman's transactional lock removal, no hardware
// conflict-management changes are needed — livelock is avoided in
// software by bounding retries and falling back to the lock. maxAttempts
// bounds the speculative attempts (0 selects DefaultSLRAttempts); one
// attempt is the pessimistic variant.
func NewSLR(main locks.Lock, maxAttempts int) *RTMScheme {
	if maxAttempts <= 0 {
		maxAttempts = DefaultSLRAttempts
	}
	name := "Opt-SLR"
	if maxAttempts == 1 {
		name = "Pes-SLR"
	}
	return &RTMScheme{name: name, rtm: rtm{main: main, check: checkCommit},
		recovery: recoverRemove, attempts: maxAttempts}
}

// NewPessimisticSLR builds the pessimistic variant: one speculative try.
func NewPessimisticSLR(main locks.Lock) *RTMScheme { return NewSLR(main, 1) }

// NewSLRSCM applies software-assisted conflict management to lock
// removal (Chapter 4): the primary path is the SLR transaction, and
// aborted threads serialize on the starvation-free aux lock and rejoin
// speculation, further reducing the progress problems caused when SLR
// threads give up and take the lock. A non-retryable abort gives up at
// once, and a lock-held abort retries without waiting.
func NewSLRSCM(main, aux locks.Lock, cfg SCMConfig) *RTMScheme {
	return &RTMScheme{name: "Opt-SLR-SCM", recovery: recoverManage, rtm: rtm{main: main, check: checkCommit,
		aux: []locks.Lock{aux}, retries: cfg.maxRetries(), hardStop: true}}
}
