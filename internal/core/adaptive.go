package core

import (
	"hle/internal/adapt"
	"hle/internal/locks"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// scmHeldWaitBound caps how many pause iterations the adaptive SCM rung
// waits for the main lock to free after a lock-held abort. Static HLE-SCM
// waits unboundedly — safe there because only giving-up aux holders ever
// take the main lock — but during a hot swap the Serial level keeps the
// main lock near-saturated, and an unbounded wait would park a draining
// SCM section for hundreds of thousands of cycles. After the bound the
// section burns a retry (the next attempt re-aborts if the lock is still
// held), so it converges to the fair main-lock acquisition.
const scmHeldWaitBound = 64

// AdaptiveConfig tunes the adaptive scheme: the controller's decision
// thresholds plus the SCM retry budget its middle rung uses.
type AdaptiveConfig struct {
	// Controller tunes the adapt.Controller (zero fields defaulted).
	Controller adapt.Config
	// SCM tunes the software-assisted conflict management rung. Only
	// MaxRetries is honoured: the rung reads the main lock at entry and
	// has no nested (Ideal) variant (hle.Adaptive rejects it).
	SCM SCMConfig
}

// Adaptive executes critical sections at the level an adapt.Controller
// chooses per window, each level one of the static schemes' recovery
// loops over the same speculative attempt: Elide is RTM-LE's loop, SCM is
// HLE-SCM's, and Serial is Pes-SLR's — one speculative probe, then the
// real lock. The attempt carries the controller's obs.Feed, so every
// commit and every abort Status is classified for the controller.
//
// Every level reads the main lock at entry. The SCM rung differs from
// HLE-SCM in two deliberate ways: a non-retryable abort (capacity) gives
// up on speculation at once, and the wait for a held main lock is bounded
// (scmHeldWaitBound). The Serial floor's probe, unlike SLR's commit-time
// test, also subscribes at entry, because it keeps feeding the controller
// the signal it needs to notice a storm has passed: a probe that starts
// while the floor's serial path holds the lock dies immediately with an
// explicit abort, and one overtaken mid-flight dies on the lock-line
// conflict — both classes the controller's promotion rule discounts. A
// commit-time test would instead let probes run full critical sections
// concurrently with a holder and abort on the holder's data writes,
// polluting the recovery signal with hard aborts the floor itself caused.
//
// Level changes hot-swap: critical sections entered after a decision run
// at the new level immediately, while sections already in flight finish
// under the level they started with, and the controller is told when the
// last of them drains (no decision fires mid-drain). Mixing levels during
// the drain window is safe because every level keeps the paper's
// correctness contract with the same main lock: speculative runs at every
// level check the lock at entry, keeping it in their read set, and abort
// the moment a non-speculative holder appears.
//
// All scheme state is touched only by token-serialized simulated threads,
// so the controller, feed, and drain bookkeeping need no host
// synchronization and stay byte-deterministic at any -parallel.
type Adaptive struct {
	statsBase
	rtm

	ctl *adapt.Controller

	cur      adapt.Level            // level new critical sections adopt
	prev     adapt.Level            // level being drained, meaningful while draining > 0
	draining int                    // in-flight sections still running at prev
	inflight [locks.MaxThreads]int8 // per-thread active level, -1 when idle

	tap func(obs.WindowStats) // optional window observer, after the controller
}

// NewAdaptive builds an adaptive scheme over main. aux serializes the SCM
// rung's aborters; the paper requires it starvation-free (an MCS lock).
func NewAdaptive(main, aux locks.Lock, cfg AdaptiveConfig) *Adaptive {
	if main == nil || aux == nil {
		panic("core: Adaptive requires a main and an auxiliary lock")
	}
	ctl := adapt.NewController(cfg.Controller)
	s := &Adaptive{ctl: ctl, rtm: rtm{main: main, check: checkEntry,
		aux: []locks.Lock{aux}, retries: cfg.SCM.maxRetries(), hardStop: true, heldWait: scmHeldWaitBound}}
	s.feed = obs.NewFeed(ctl.Config().WindowCycles, func(w obs.WindowStats) {
		ctl.Observe(w)
		if s.tap != nil {
			s.tap(w)
		}
	})
	s.Reset()
	return s
}

// Reset returns the scheme to the state NewAdaptive left it in: zero
// statistics, the controller back at its start level with an empty
// decision log, an idle feed, no swap draining and no section in flight.
// An installed window tap stays installed.
func (s *Adaptive) Reset() {
	s.statsBase.Reset()
	s.ctl.Reset()
	s.feed.Reset()
	s.cur, s.prev, s.draining = s.ctl.Level(), 0, 0
	for i := range s.inflight {
		s.inflight[i] = -1
	}
}

// Name implements Scheme.
func (s *Adaptive) Name() string { return "Adaptive" }

// Setup implements Scheme.
func (s *Adaptive) Setup(t *tsx.Thread) { s.setup(t) }

// Controller exposes the decision state machine (transition log, level
// occupancy) for reporting and tests.
func (s *Adaptive) Controller() *adapt.Controller { return s.ctl }

// Level returns the level new critical sections currently adopt.
func (s *Adaptive) Level() adapt.Level { return s.cur }

// Transitions returns the controller's decision log.
func (s *Adaptive) Transitions() []adapt.Transition { return s.ctl.Transitions() }

// SetWindowTap installs an observer called with every closed feed window
// after the controller has consumed it — for tests and reporting.
// Observation is passive; install before the first Run.
func (s *Adaptive) SetWindowTap(tap func(obs.WindowStats)) { s.tap = tap }

// Run implements Scheme.
func (s *Adaptive) Run(t *tsx.Thread, cs func()) Result {
	// Deliver any windows that closed while the lock was quiet, so
	// dwell/probation clocks advance even with sparse traffic.
	s.feed.Tick(t.Clock())

	// Apply a pending controller decision at the first entry after it,
	// once any previous swap has fully drained.
	if want := s.ctl.Level(); want != s.cur && s.draining == 0 {
		n := 0
		for _, lv := range s.inflight {
			if lv == int8(s.cur) {
				n++
			}
		}
		s.prev, s.cur = s.cur, want
		s.draining = n
		s.ctl.NoteSwap(t.Clock(), n)
	}

	lvl := s.cur
	s.inflight[t.ID] = int8(lvl)
	var r Result
	switch lvl {
	case adapt.Elide:
		r = s.elide(t, cs)
	case adapt.SCM:
		r = s.manage(t, cs)
	default:
		r = s.remove(t, cs, 1)
	}
	s.inflight[t.ID] = -1
	if s.draining > 0 && lvl == s.prev {
		s.draining--
		if s.draining == 0 {
			s.ctl.NoteDrained(t.Clock())
		}
	}
	s.record(t.ID, r)
	return r
}
