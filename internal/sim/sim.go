//go:build go1.23

// iter.Pull needs Go 1.23; go.mod keeps go 1.22 for the bench module that requires this one.

// Package sim provides a deterministic, cycle-approximate simulator of a
// small multicore machine.
//
// Simulated hardware threads ("procs") run as coroutines, and execution is
// serialized: at any instant exactly one proc is running, and control always
// passes to the proc with the smallest virtual clock. Each simulated memory
// access advances the issuing proc's clock by the access cost, so virtual
// time behaves like parallel wall time on a real machine, while the host
// needs only a single CPU and every run is reproducible from a seed.
//
// Each proc body runs on an iter.Pull coroutine. The proc that exhausts its
// grant runs the scheduling decision inline — one fused min/runner-up clock
// scan, one RNG draw — installs the grant on the chosen proc and resumes it
// directly: one coroutine switch, a direct stack switch that never enters
// the Go scheduler, so it costs less than one goroutine park/ready pair and
// leaves no idle P spinning for work. Run's own goroutine makes the first
// decision and the one after each body returns. A proc that picks itself
// (a sole runner under an armed watchdog, mainly) keeps running with no
// switch at all. A proc waiting on a lock word parks its wait (a Waiter)
// instead of switching: later grants to it are served in place by whichever
// goroutine holds the token, and its coroutine is resumed only when the
// wait ends or a stop order arrives. Coroutines are pooled: each runs one
// body per Run and parks between Runs. A Runner keeps the scheduler state,
// the procs and their buffers between Runs too, so a loop of many short
// Runs (the model checker's replays) allocates nothing once warm.
// See DESIGN.md for why this preserves byte-identical schedules with the
// central-scheduler formulation the simulator started from.
//
// Upper layers (the TSX engine in internal/tsx) perform all shared-state
// manipulation between a grant and the following yield, so they need no
// Go-level synchronization of their own: iter.Pull's switch orders every
// access of one proc before the next proc's, as the race detector also
// sees.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config describes the simulated machine.
type Config struct {
	// Procs is the number of simulated hardware threads.
	Procs int
	// Seed makes runs reproducible. Two runs with equal Config and equal
	// workloads produce identical schedules and identical statistics.
	Seed int64
	// Quantum is the number of virtual cycles a proc may run past the
	// runner-up clock before it must yield to the scheduler. Smaller
	// values interleave more finely at higher simulation cost.
	// Zero selects DefaultQuantum.
	Quantum uint64

	// Grant, when non-nil, adjusts the randomized grant slice before it is
	// handed to a proc — the fault-injection point for scheduler-grant
	// skew. It runs after the scheduler's own random draw, so a nil Grant
	// and an identity Grant produce byte-identical schedules.
	Grant func(procID int, clock, slice uint64) uint64

	// OnGrant, when non-nil, observes every scheduler grant in issue
	// order with the granted proc and its clock (the minimum clock in
	// the machine). Profiling collectors sample occupancy from it. It
	// must be passive: schedules are byte-identical with and without it.
	OnGrant func(procID int, clock uint64)

	// Watchdog, when non-nil, is consulted before every grant with the
	// about-to-run proc's clock (the minimum clock in the machine).
	// Returning true stops the simulation: every remaining proc unwinds
	// at its next Step and Run returns normally with those procs marked
	// Stopped. The liveness watchdogs in internal/harness use this to
	// degrade a livelocked or deadlocked run into a diagnostic result
	// instead of a hang.
	Watchdog func(minClock uint64) bool

	// Strategy, when non-nil, REPLACES the default scheduling policy: at
	// every scheduling decision the strategy — not the fused min-clock
	// scan plus randomized slice draw — picks which proc runs next and
	// for how long. The model checker in internal/explore uses it to
	// enumerate interleavings; see Strategy. In strategy mode Grant and
	// Watchdog are ignored (the strategy subsumes both: it controls every
	// grant and may stop the run), and the scheduler's RNG is never
	// consulted, so a strategy-driven run is a pure function of the
	// strategy's decisions and the workload. A nil Strategy leaves the
	// default policy byte-identical to a build without the hook.
	Strategy Strategy
}

// Choice is one runnable proc presented to a Strategy at a scheduling
// decision, in ascending ProcID order.
type Choice struct {
	ProcID int
	Clock  uint64
}

// Decision is a Strategy's answer to one scheduling decision.
type Decision struct {
	// Index selects choices[Index] as the proc to grant.
	Index int
	// Target is the granted proc's new clock target: the proc yields back
	// at its first Step that reaches Target. A target at or just above
	// the proc's current clock makes the grant a single simulated access
	// — the granularity an interleaving explorer wants.
	Target uint64
	// Steps, when positive, makes the grant step-counted instead of
	// clock-targeted: the proc yields back after exactly Steps calls to
	// Step with non-zero cost, and Target is ignored. A Steps=n grant is
	// observably identical to n consecutive single-step grants to the
	// same proc (each Step advances the clock by its cost either way, and
	// zero-cost Steps pass through both forms without yielding); it
	// exists so a replayer forcing a known schedule can batch runs of
	// same-proc decisions into one handoff.
	Steps int
	// Stop aborts the run: every remaining proc unwinds at its next Step
	// and Run returns normally with those procs marked Stopped.
	Stop bool
}

// Strategy decides scheduler grants in place of the default policy. Pick is
// called with the runnable procs (ascending ProcID; always at least one)
// each time a grant is needed. Like the Watchdog, OnGrant and Grant hooks,
// it runs either inside the yielding proc's coroutine or on Run's caller
// (for the first grant and after a body returns), never concurrently —
// implementations need no locking but must not block.
type Strategy interface {
	Pick(choices []Choice) Decision
}

// DefaultQuantum is used when Config.Quantum is zero. It is small enough
// that independent procs interleave within a single short critical section.
const DefaultQuantum = 12

// Proc is one simulated hardware thread. A Proc is only valid inside the
// body function passed to Run, and must not be shared across bodies. After
// Run returns, its clock and Stopped flag stay readable until the next Run
// on the same Runner, which reuses the Proc.
type Proc struct {
	// ID is the hardware thread index, in [0, Config.Procs).
	ID int

	clock   uint64
	target  uint64
	steps   int  // remaining cost>0 steps of a step-counted grant (0: clock-targeted)
	halt    bool // the installed grant is a stop order
	sched   *sched
	coro    *coro // the goroutine that runs the body
	rngSeed int64
	rng     *rand.Rand // nil until the Run's first Rand(), then rngBuf seeded from rngSeed
	rngBuf  *rand.Rand // the generator's storage, kept across Runs
	stopped bool
	wait    Waiter // the parked wait that serves the proc's grants in place (nil: none)
}

// Waiter is a parked proc's resumable wait: a loop whose only yield points
// are its proc's Ticks, written as a state machine so the scheduler can run
// it on whichever goroutine holds the token (see Proc.Park). Advance runs
// the wait on the proc's installed grant and reports true when the wait has
// ended (the proc then runs on, on its own coroutine, with the rest of that
// grant) or false when a Tick ran the grant out. Since it may run off the
// proc's coroutine, Advance must never yield: it Ticks its proc and does
// the wait's own simulated work, and never Steps or Parks.
type Waiter interface {
	Advance() bool
}

// grantMsg is one scheduling decision's grant: a new clock target (or a
// step budget, for step-counted grants), or a stop order that unwinds the
// granted proc's body.
type grantMsg struct {
	target uint64
	steps  int
	stop   bool
}

// stopSignal is the panic value that unwinds a proc's body when the
// scheduler stops the simulation. It deliberately does not implement error:
// transaction-rollback recovers (internal/tsx) re-raise everything that is
// not their own sentinel, so the signal always reaches the proc wrapper.
type stopSignal struct{}

// grantHook, when non-nil, observes every scheduler grant in issue order:
// the granted proc, its new clock target, and whether the grant is a stop
// order. It exists for the schedule-hash regression tests, which fingerprint
// the exact grant sequence; production code must leave it nil.
var grantHook func(procID int, target uint64, stop bool)

// grantCount counts scheduler grants process-wide, flushed once per Run.
// hle-bench reads it to report grants/sec alongside wall time.
// servedCount counts the grants served in place to parked procs, and
// switchCount the coroutine switches.
var grantCount, servedCount, switchCount atomic.Uint64

// Grants returns the total number of scheduler grants issued by completed
// Run calls in this process. The difference across a workload, divided by
// its wall time, is the simulator's grant throughput.
func Grants() uint64 { return grantCount.Load() }

// ServedGrants returns how many of the grants counted by Grants went to a
// parked proc and were served in place, without a coroutine switch.
func ServedGrants() uint64 { return servedCount.Load() }

// Switches returns the number of coroutine switches made by completed Run
// calls in this process: one per grant that resumes a proc other than the
// one that yielded, one per body that returns, and none for a grant served
// in place or a proc that picks itself.
func Switches() uint64 { return switchCount.Load() }

// sched is the shared scheduling state of one Run. It has no lock: only the
// goroutine holding the token — a proc's coroutine or Run's own — touches
// it, and the coroutine switches that pass the token order those accesses.
// A Runner resets it for every Run, keeping its buffers.
type sched struct {
	quantum  uint64
	grantFn  func(procID int, clock, slice uint64) uint64
	onGrant  func(procID int, clock uint64)
	watchdog func(minClock uint64) bool
	strategy Strategy
	choices  []Choice // reused presentation buffer (strategy mode only)
	rngSeed  int64
	rng      *rand.Rand // nil until the Run's first default-policy pick, then rngBuf seeded from rngSeed
	rngBuf   *rand.Rand // the generator's storage, kept across Runs
	running  []*Proc
	caller   coro  // Run's goroutine, parked while the procs hold the token
	exited   *Proc // the proc whose body returned last
	goexit   bool  // a body called runtime.Goexit
	stopping bool
	grants   uint64
	served   uint64 // grants served in place to parked procs
	switches uint64
	panics   []any
}

// pick runs one scheduling decision: select the minimum-clock proc (ties
// broken by position in the run queue, i.e. lowest ID until a finished proc
// is swap-removed) and compute its grant. The minimum and runner-up clocks
// come from a single fused scan.
func (s *sched) pick() (*Proc, grantMsg) {
	if s.strategy != nil {
		return s.pickStrategy()
	}
	running := s.running
	minIdx := 0
	minClock := running[0].clock
	second := ^uint64(0)
	for i := 1; i < len(running); i++ {
		c := running[i].clock
		if c < minClock {
			second = minClock
			minClock = c
			minIdx = i
		} else if c < second {
			second = c
		}
	}
	p := running[minIdx]
	if !s.stopping && s.watchdog != nil && s.watchdog(minClock) {
		s.stopping = true
	}
	s.grants++
	if s.onGrant != nil {
		s.onGrant(p.ID, minClock)
	}
	var msg grantMsg
	if s.stopping {
		msg.stop = true
	} else {
		target := ^uint64(0)
		// A sole remaining proc normally gets an unbounded grant, but
		// with a watchdog armed every grant must be finite or a
		// livelocked last proc would never yield the token back.
		if second != ^uint64(0) || s.watchdog != nil {
			// Grant lengths are randomized in [1, quantum] to break
			// phase-locking: with deterministic equal-length grants,
			// threads running identical loops execute in rigid lockstep
			// and their critical sections never interleave in token
			// order, hiding conflicts that overlap in virtual time.
			// Real machines have scheduling noise; so does this one.
			if s.rng == nil {
				// Seeding is deferred to here because strategy-mode
				// picks never draw: a model-checking replay that makes
				// millions of Run calls would otherwise spend most of
				// its time filling rand's 607-word state tables.
				s.rng = seeded(&s.rngBuf, s.rngSeed)
			}
			slice := 1 + uint64(s.rng.Int63n(int64(s.quantum)))
			if s.grantFn != nil {
				slice = s.grantFn(p.ID, minClock, slice)
				if slice == 0 {
					slice = 1
				}
			}
			base := second
			if base == ^uint64(0) {
				base = minClock
			}
			if base < ^uint64(0)-slice {
				target = base + slice
			}
		}
		msg.target = target
	}
	if grantHook != nil {
		grantHook(p.ID, msg.target, msg.stop)
	}
	return p, msg
}

// pickStrategy runs one scheduling decision under an installed Strategy:
// the runnable procs are presented in ascending ProcID order (the run
// queue's own order depends on finish-time swap removals, which a
// strategy's choice indices must not see) and the strategy's decision is
// applied verbatim. Once a stop has been ordered — by the strategy or by a
// prior decision — every subsequent pick issues stop grants until the run
// unwinds, without consulting the strategy again.
func (s *sched) pickStrategy() (*Proc, grantMsg) {
	running := s.running
	s.grants++
	var p *Proc
	var msg grantMsg
	if s.stopping {
		p = running[0]
		msg.stop = true
	} else {
		cs := s.choices[:0]
		for _, q := range running {
			c := Choice{ProcID: q.ID, Clock: q.clock}
			i := len(cs)
			cs = append(cs, c)
			for i > 0 && cs[i-1].ProcID > c.ProcID {
				cs[i] = cs[i-1]
				i--
			}
			cs[i] = c
		}
		s.choices = cs
		d := s.strategy.Pick(cs)
		if d.Stop {
			s.stopping = true
			p = running[0]
			msg.stop = true
		} else {
			if d.Index < 0 || d.Index >= len(cs) {
				panic(fmt.Sprintf("sim: strategy picked index %d of %d choices", d.Index, len(cs)))
			}
			id := cs[d.Index].ProcID
			for _, q := range running {
				if q.ID == id {
					p = q
					break
				}
			}
			msg.target = d.Target
			if d.Steps > 0 {
				msg.target = ^uint64(0)
				msg.steps = d.Steps
			}
		}
	}
	if s.onGrant != nil {
		s.onGrant(p.ID, p.clock)
	}
	if grantHook != nil {
		grantHook(p.ID, msg.target, msg.stop)
	}
	return p, msg
}

// serve installs msg on p and returns the proc that must run next on its
// own coroutine. While the granted proc is parked in a wait and the grant is
// not a stop order, its wait runs right here, on the current goroutine: a
// grant it exhausts is followed by the next scheduling decision, also made
// here, and so on until a proc that must be resumed comes up — one whose
// wait has just ended, one with no parked wait, or one ordered to stop.
// Every grant still comes from pick, and a parked proc's wait performs the
// same Ticks it would have on its own coroutine, in the same order, so the
// schedule is the same one the coroutine-switching path produces.
func (s *sched) serve(p *Proc, msg grantMsg) *Proc {
	for {
		p.target, p.steps, p.halt = msg.target, msg.steps, msg.stop
		if p.wait == nil || msg.stop {
			return p
		}
		s.served++
		if p.wait.Advance() {
			p.wait = nil
			return p
		}
		p, msg = s.pick()
	}
}

// dispatch is the part of the schedule that runs on Run's goroutine: the
// first grant, and the next one after each body returns. It resumes the
// proc that grant ends on and suspends until a body returns — the procs
// hand the token among themselves in between — then takes the finished
// proc off the run queue and returns its coroutine to the pool. A body that
// called runtime.Goexit leaves its coroutine parked for good instead, and
// turns the rest of the Run into the stop cascade, hooks silenced, after
// which Run passes the Goexit on to its caller.
func (s *sched) dispatch() {
	for len(s.running) > 0 {
		s.switchTo(&s.caller, s.serve(s.pick()).coro)
		p := s.exited
		running := s.running
		for i, q := range running {
			if q == p {
				running[i] = running[len(running)-1]
				s.running = running[:len(running)-1]
				break
			}
		}
		if p.coro.goexit {
			s.goexit, s.stopping, s.onGrant = true, true, nil
		} else {
			putCoro(p.coro)
		}
	}
}

// switchTo parks from's goroutine and resumes to's with one coroutine
// switch. Every goroutine that is not running is parked in exactly one
// iter.Pull, and each Pull holds exactly one: to's goroutine leaves the
// Pull it is parked in and from's takes its place. A Pull alternates next
// and yield, so from is resumed by the opposite of the call that parks it.
func (s *sched) switchTo(from, to *coro) {
	at, byYield := to.at, to.byYield
	from.at, from.byYield = at, !byYield
	to.at = nil
	s.switches++
	if byYield {
		at.yield(struct{}{})
	} else {
		at.next()
	}
}

// pull is one iter.Pull coroutine's pair of resume functions. Whichever
// goroutine calls one of them parks in the Pull and resumes the goroutine
// parked there: the one that Pull started, or any other that parked in it
// since.
type pull struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// coro is a goroutine that can hold the token: a pooled proc coroutine,
// which runs one proc body per Run and waits in the idle pool in between,
// or Run's own goroutine (sched.caller). It records where the goroutine is
// parked while it is not running. Reuse matters under the race detector,
// where the runtime (as of Go 1.24) never releases an exited coroutine
// goroutine's race state: a fresh coroutine per proc per Run leaked about
// 5 KB each, which ran the model checker's -race suite out of memory. It
// also spares every Run the goroutine start-ups.
type coro struct {
	at      *pull // the Pull the goroutine is parked in (nil: running)
	byYield bool  // at resumes it by yield, not next
	goexit  bool  // its body called runtime.Goexit: parked for good
	p       *Proc
	body    func(*Proc)
}

// idle holds the parked coroutines that Runs take their procs from. It
// grows to the largest number of procs that were ever running at once, all
// of which the process had already allocated at that moment.
var idle struct {
	sync.Mutex
	coros []*coro
}

// takeCoro returns a parked coroutine, or a new one if none is parked. A
// new one's goroutine waits at the start of its own Pull, for next. Its
// goroutine never exits: exiting would resume whichever goroutine is parked
// in its own Pull by then, which may belong to another Run.
func takeCoro() *coro {
	idle.Lock()
	if n := len(idle.coros); n > 0 {
		c := idle.coros[n-1]
		idle.coros = idle.coros[:n-1]
		idle.Unlock()
		return c
	}
	idle.Unlock()
	c, at := new(coro), new(pull)
	// No Pull is ever stopped, so yield never returns false.
	at.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		at.yield = yield
		growProcStack()
		for {
			c.run()
			c.handBack()
		}
	})
	c.at = at
	return c
}

// run executes the installed body, recording any panic other than a stop
// order for Run to re-raise. A proc whose first grant is a stop order never
// starts its body, so there is nothing to unwind: it is marked stopped and
// returns. A body that calls runtime.Goexit hands the token to Run's
// goroutine from the Goexit's deferred calls and is never resumed.
func (c *coro) run() {
	p := c.p
	if p.halt {
		p.stopped, p.wait = true, nil
		return
	}
	returned := false
	defer func() {
		r := recover()
		if r == nil && !returned {
			// Nothing holds c once Run sees goexit, so handBack never
			// returns and the Goexit never finishes.
			c.goexit = true
			c.handBack()
		}
		if _, isStop := r.(stopSignal); r != nil && !isStop {
			p.sched.panics[p.ID] = r
		}
	}()
	c.body(p)
	returned = true
}

// handBack passes the token to Run's goroutine once c's body is done.
func (c *coro) handBack() {
	s := c.p.sched
	s.exited = c.p
	s.switchTo(c, &s.caller)
}

// putCoro returns a coroutine whose body has returned to the pool. Only
// the goroutine it handed the token to may put it, once it is parked: a
// Run that took it earlier would switch into a Pull it has not parked in.
func putCoro(c *coro) {
	c.p, c.body = nil, nil
	idle.Lock()
	idle.coros = append(idle.coros, c)
	idle.Unlock()
}

// Clock returns the proc's current virtual time in cycles.
func (p *Proc) Clock() uint64 { return p.clock }

// Rand returns the proc's deterministic random source, built on first use
// so procs that never draw (e.g. under a schedule-exploration strategy
// with spurious aborts and jitter disabled) skip the seeding cost.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = seeded(&p.rngBuf, p.rngSeed)
	}
	return p.rng
}

// seeded returns *buf reset to seed's stream, building it the first time.
// Reseeding in place leaves a generator in exactly the state a new one
// from rand.NewSource(seed) starts in, without allocating its tables.
func seeded(buf **rand.Rand, seed int64) *rand.Rand {
	if *buf == nil {
		*buf = rand.New(rand.NewSource(seed))
	} else {
		(*buf).Seed(seed)
	}
	return *buf
}

// Stopped reports whether the proc was unwound by a watchdog stop rather
// than returning from its body. A stopped proc's body did not finish: its
// upper-layer state (open transactions, held locks) is torn and only good
// for diagnostics.
func (p *Proc) Stopped() bool { return p.stopped }

// Step advances the proc's virtual clock by cost cycles, yielding the
// token if the proc has run ahead of its peers. Every simulated memory
// access and every unit of simulated computation funnels through Step.
func (p *Proc) Step(cost uint64) {
	if p.Tick(cost) {
		p.yieldToken()
	}
}

// Tick is Step without the yield: it advances the clock by cost cycles and
// reports whether that ran the installed grant out. A Waiter's Advance
// Ticks its proc and returns false at the first Tick that reports true;
// code running on the proc's own coroutine must then Park (or Step, which
// yields) before it goes on.
func (p *Proc) Tick(cost uint64) bool {
	p.clock += cost
	if p.steps > 0 {
		if cost != 0 {
			p.steps--
			return p.steps == 0
		}
		return false
	}
	return p.clock >= p.target
}

// Park suspends the proc inside a wait whose last Tick ran its grant out:
// the scheduling decision that Step would make runs now, and from here on
// every grant to the proc is served by w.Advance in place, on whichever
// goroutine holds the token, with no switch to the proc's coroutine. Park
// returns once an Advance has reported the wait ended, on the grant that
// ended it, and unwinds the body like Step if a stop order arrives first.
func (p *Proc) Park(w Waiter) {
	p.wait = w
	p.yieldToken()
}

// yieldToken runs the scheduling decision inline on the yielding proc,
// serves any parked procs it picks, and switches straight to the proc the
// decisions end on. When that is the yielder itself (a sole runner under an
// armed watchdog, mainly, or a parked yielder whose wait ended in place),
// it keeps running with no switch.
func (p *Proc) yieldToken() {
	s := p.sched
	if next := s.serve(s.pick()); next != p {
		s.switchTo(p.coro, next.coro)
	}
	p.obeyStop()
}

// obeyStop unwinds the proc's body if its installed grant is a stop order.
func (p *Proc) obeyStop() {
	if p.halt {
		p.stopped, p.wait = true, nil
		panic(stopSignal{})
	}
}

// Run simulates n procs, each executing body, and returns when all bodies
// have returned. Control always passes to the minimum-clock proc (ties
// broken by lowest ID), granted a quantum beyond the runner-up clock.
//
// A panic in a body is re-raised on the caller's goroutine. A panic in a
// scheduling hook that runs on the caller's goroutine propagates as is,
// after every unfinished body has been unwound.
//
// Run is a one-shot Runner: callers that run many simulations one after
// another keep a Runner instead.
func Run(cfg Config, n int, body func(p *Proc)) []*Proc {
	return new(Runner).Run(cfg, n, body)
}

// Runner runs simulations one at a time, keeping the scheduler, the procs,
// the run queue and the strategy-choice and panic buffers between Runs, so
// a warm Runner's Run allocates nothing. The zero value is ready to use. A
// Runner must not be copied once used, and must not start a Run from
// inside one of its own.
type Runner struct {
	s     sched
	procs []*Proc
}

// Run is the package-level Run on the Runner's reused state. The returned
// procs are the Runner's own: they stay valid until its next Run, which
// resets and reuses them.
func (r *Runner) Run(cfg Config, n int, body func(p *Proc)) []*Proc {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Run with n = %d", n))
	}
	quantum := cfg.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}

	s := &r.s
	*s = sched{
		quantum:  quantum,
		grantFn:  cfg.Grant,
		onGrant:  cfg.OnGrant,
		watchdog: cfg.Watchdog,
		strategy: cfg.Strategy,
		choices:  s.choices[:0],
		rngSeed:  cfg.Seed*2_654_435_761 + 97,
		rngBuf:   s.rngBuf,
		running:  s.running[:0],
		panics:   s.panics[:0],
	}
	for len(r.procs) < n {
		r.procs = append(r.procs, new(Proc))
	}
	procs := r.procs[:n]
	for i, p := range procs {
		*p = Proc{
			ID:      i,
			sched:   s,
			coro:    takeCoro(),
			rngSeed: cfg.Seed*1_000_003 + int64(i)*7919 + 1,
			rngBuf:  p.rngBuf,
		}
		p.coro.p, p.coro.body = p, body
		s.panics = append(s.panics, nil)
	}
	s.running = append(s.running, procs...)

	defer func() {
		if len(s.running) > 0 {
			// A hook panicked on this goroutine with bodies unfinished:
			// unwind them through the stop cascade, hooks silenced, so
			// their coroutines park before the panic reaches the caller.
			s.stopping, s.onGrant = true, nil
			s.dispatch()
		}
	}()
	s.dispatch()
	if s.goexit {
		runtime.Goexit()
	}

	grantCount.Add(s.grants)
	servedCount.Add(s.served)
	switchCount.Add(s.switches)
	for i, r := range s.panics {
		if r != nil {
			panic(fmt.Sprintf("sim: proc %d panicked: %v", i, r))
		}
	}
	return procs
}

// stackPadIdx and stackPadSink keep growProcStack's pad array opaque to the
// compiler: an unknown index forces the array to materialize on the stack
// (a constant index or an all-zero read could be folded away, and taking
// the array's address would move it to the heap, defeating the point).
// The sink is atomic because procs of concurrent Runs write it at startup.
var (
	stackPadIdx  int
	stackPadSink atomic.Uint32
)

// growProcStack forces the calling coroutine's stack to grow to the procs'
// steady-state depth while the stack is still nearly empty. Workload bodies
// run deep (scheme -> engine -> memory -> scheduler), and growing the stack
// mid-run copies every live frame — under short replay-style Runs that
// copying dominates the profile. One oversized frame at the top of the
// coroutine, once when it starts, moves the growth to the cheapest possible
// moment; a pooled coroutine keeps its grown stack for every later body.
//
//go:noinline
func growProcStack() {
	var pad [4 << 10]byte
	pad[stackPadIdx] = 1
	stackPadSink.Store(uint32(pad[stackPadIdx>>1]))
}
