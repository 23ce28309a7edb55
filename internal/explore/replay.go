package explore

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"hle/internal/check"
	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/sim"
	"hle/internal/tsx"
)

// maxLines is the most cache lines an edge's masks cover: one bit per line
// of the exploration machine (exploreWords in 8-word lines).
const maxLines = 64

// exploreWords sizes the exploration machine's memory. The workloads use a
// few dozen words; small memory keeps per-replay setup cheap, and its 64
// lines are exactly what an edge's line masks cover. It is a variable only
// so a test can prove that newExplorer refuses a larger machine.
var exploreWords = 1 << 9

// lineSet is a set of cache lines, with the subset that was written.
type lineSet struct {
	lines, written uint64
}

// add records an access to line.
func (s *lineSet) add(line int, write bool) {
	bit := uint64(1) << line
	s.lines |= bit
	if write {
		s.written |= bit
	}
}

// conflicts reports whether s and o share a line that either side wrote.
func (s *lineSet) conflicts(o *lineSet) bool {
	return s.written&o.lines|s.lines&o.written != 0
}

// edge is the footprint of one grant: the lines it accessed (and wrote),
// the granted thread's pre-existing transactional footprint (a foreign
// access to any of those lines dooms the transaction, so it matters for
// commutativity), and whether the grant crossed a transaction boundary
// (begin/commit/abort touch line metadata wholesale and are treated as
// dependent with everything). It is four line masks and a flag, so
// capturing, copying and comparing one allocates nothing.
type edge struct {
	acc, tx  lineSet
	boundary bool
}

// writeFree reports whether the grant performed no write and crossed no
// transaction boundary — the stutter bound only caps runs of such grants.
func writeFree(e *edge) bool {
	return !e.boundary && e.acc.written == 0
}

// dependent conservatively decides whether two grants from the same state
// may fail to commute. Boundary grants depend on everything; so do silent
// grants (no observed access: engine-internal waits — a spin's PAUSE leg,
// the HWExt suspend loop — poll shared state without going through the
// access path, so their order against writes is observable). Otherwise two
// grants depend iff they touch a common line with a write involved on
// either side, counting the threads' transactional footprints as touched
// (a foreign write dooms the transaction).
func dependent(a, b *edge) bool {
	if a.boundary || b.boundary || a.acc.lines == 0 || b.acc.lines == 0 {
		return true
	}
	return a.acc.conflicts(&b.acc) || a.acc.conflicts(&b.tx) || b.acc.conflicts(&a.tx)
}

// runOutcome is what one prefix replay reports back to the search.
type runOutcome struct {
	// fp and enabled describe the frontier state (prefix consumed, next
	// decision pending); meaningful only when neither terminal nor
	// truncated. The enabled procs are enabled[:nEnabled], ascending.
	fp uint64
	// violation is the first property failure observed, or nil.
	violation *Violation
	// lastEdge is the footprint of the final prefix grant.
	lastEdge edge
	enabled  [maxExploreProcs]uint8
	nEnabled uint8
	// terminal: every thread finished and the terminal checks ran.
	terminal bool
	// truncated: a replay bound stopped the run.
	truncated bool
}

// enabledProcs returns the procs enabled at the frontier.
func (o *runOutcome) enabledProcs() []uint8 { return o.enabled[:o.nEnabled] }

// chainOut is one outcome banked by a chained replay beyond its own node:
// exactly what a scratch replay of the previous prefix extended by proc
// would report. A chained replay is the search's stand-in for forking a
// mid-run machine — goroutine state (open transactions, scheduler
// positions) cannot be checkpointed, but a live run CAN keep executing
// past its frontier, and because strategy-mode runs are pure functions of
// their decision sequence the banked outcome is bit-identical to the
// replay it saves.
type chainOut struct {
	proc uint8
	out  runOutcome
}

// chainBuf receives one replay's banked chain outcomes, in chain order.
// The search keeps one per replay slot of a wave and reuses it wave after
// wave: the merge copies its contents into the next wave's bank arena
// before the next wave's replays overwrite it.
type chainBuf struct {
	outs []chainOut
}

type explorer struct {
	cfg *Config
	// spec is the configuration's scheme and mcfg its exploration
	// machine (flight recorder off), both resolved once per search.
	spec harness.SchemeSpec
	mcfg tsx.Config
	// tmpl is the config's constructed-machine image, captured once and
	// forked by every search replay. diagTmpl is the same image on a
	// flight-recorder-on machine, built on first use by the diagnosis
	// replays (diagnose, rediagnose) — only a search that finds a
	// violation needs it.
	tmpl, diagTmpl *replayTemplate
	// rigs is the free list of search replayers (see replayNode): each
	// owns a machine, its memory arrays and transaction contexts, its
	// locks and scheme, and its scratch slices, and is reset to tmpl in
	// place for every replay. A replay takes one and returns it when it
	// ends, so the list never holds more rigs than replays ever ran at
	// the same time.
	rigs struct {
		sync.Mutex
		free []*replayer
	}
}

func newExplorer(cfg *Config) *explorer {
	e := &explorer{cfg: cfg, spec: harness.SchemeSpec{Scheme: cfg.Scheme, Lock: cfg.Lock}}
	e.mcfg = machineConfig(cfg, e.spec)
	e.tmpl = e.buildTemplate(e.mcfg)
	return e
}

// replayTemplate is a config's post-construction machine image. The
// simulated-memory half — lock cells, scheme state, the recorder's ticket
// cell, the counter lines — lives in the checkpoint; the Go-side half is
// the constructed lock values, which a rig copies into its own locks
// (copyLock) for every replay, so a fork costs memory copies instead of
// re-executing every constructor through the engine.
type replayTemplate struct {
	cp        *tsx.Checkpoint
	main      locks.Lock
	aux       []locks.Lock
	rec       *check.Recorder
	x, y      mem.Addr
	lockWords []mem.Addr
	preLock   []uint64
}

// buildTemplate constructs the config's lock, scheme, recorder and counter
// cells on a machine configured as mcfg, and checkpoints it.
func (e *explorer) buildTemplate(mcfg tsx.Config) *replayTemplate {
	tp := &replayTemplate{}
	m := tsx.NewMachine(mcfg)
	m.Fill(func(t *tsx.Thread) {
		tp.main = buildLock(e.cfg, t)
		tp.aux = e.auxLocks(t)
		tp.rec = check.NewRecorder(t)
		tp.x = t.AllocLines(1)
		tp.y = t.AllocLines(1)
		tp.lockWords = adjustedLockWords(tp.main)
		for _, a := range tp.lockWords {
			tp.preLock = append(tp.preLock, m.Mem.Read(a))
		}
	})
	// A replay's own allocations (per-thread queue-lock nodes) land in
	// these lines too unless they grow memory, which the access tap
	// (monInj) refuses.
	if n := m.Mem.NumLines(); n > maxLines {
		panic(fmt.Sprintf("explore: the exploration machine has %d cache lines, but edge footprints are %d-bit line masks", n, maxLines))
	}
	tp.cp = m.Checkpoint()
	return tp
}

// diagTemplate returns the flight-recorder-on template, building it on
// first use. Only the sequential merge calls it.
func (e *explorer) diagTemplate() *replayTemplate {
	if e.diagTmpl == nil {
		mcfg := e.mcfg
		mcfg.TraceRing = 64
		e.diagTmpl = e.buildTemplate(mcfg)
	}
	return e.diagTmpl
}

// fpHash is one chain of a state fingerprint (see fingerprint, which runs
// four lanes and a fold chain), accumulated one word at a time. Each mix
// is a splitmix64-style avalanche round over the running state xor the
// input word — order-dependent like the FNV chain it replaced, but one
// round of multiply-shift instead of eight byte steps, since
// fingerprinting every memory word of every explored state is a hot loop
// of a sweep. Values are never persisted or compared across binaries;
// only distinctness within one search matters.
type fpHash uint64

func newFpHash() fpHash { return 0x9E3779B97F4A7C15 }

func (h *fpHash) mix(v uint64) {
	x := uint64(*h) ^ v
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	*h = fpHash(x ^ x>>32)
}

// machineConfig builds the deterministic exploration machine: no cost
// jitter, no spurious aborts, no randomness consumed anywhere, so a state
// is exactly a function of the schedule that reached it. The flight
// recorder is off — it taxes every replay but only matters on the one
// violating schedule, which the search re-replays ring-enabled
// (rediagnose) to regenerate the dump with trace events. The scheme's own
// hardware comes from the harness scheme table; the mutants then seed
// their faults.
func machineConfig(c *Config, spec harness.SchemeSpec) tsx.Config {
	mcfg := tsx.Config{
		Procs:         c.Threads,
		Seed:          1,
		MemWords:      exploreWords,
		WriteSetLines: 512,
		L1ReadLines:   512,
		ReadSetLines:  131072,
		EvictExponent: 8,
		PauseAborts:   true,
		MaxTxAccesses: 1 << 20,
		CostJitter:    -1, // negative: disabled (zero would select the default)
		Costs:         tsx.DefaultCosts(),
	}
	mcfg = spec.Machine(mcfg)
	if u, ok := mutantHardware[c.Mutant]; ok {
		mcfg.Unsound = u
	}
	return mcfg
}

// replayer replays one schedule prefix on a machine forked from a
// template. It is the sim.Strategy driving the run, the owner of the edge
// capture fed by the monitor hooks, and the workload body with its inline
// property checks.
type replayer struct {
	cfg    *Config
	prefix []uint8
	pos    int
	out    runOutcome

	m       *tsx.Machine
	threads []*tsx.Thread
	rec     *check.Recorder
	x, y    mem.Addr

	// tp is the template the rig's locks and scheme were built for. While
	// it serves tp, every reset copies tp's constructed lock values into
	// lock and aux and resets the scheme, which wraps them, in place.
	tp     *replayTemplate
	lock   locks.Lock
	aux    []locks.Lock
	scheme rigScheme

	// lockWords/preLock hold the adjusted lock's word addresses and their
	// pre-run values for the Theorems 1-2 restoration check.
	lockWords []mem.Addr
	preLock   []uint64

	opsDone []int
	allSpec bool
	// nonSpecDepth counts threads currently inside the critical section
	// non-speculatively; 2 is a mutual-exclusion violation. Speculative
	// runs are excluded: elided critical sections may legitimately
	// overlap, and a speculative run that breaks isolation is caught by
	// the serializability and snapshot checks instead.
	nonSpecDepth int

	// work is the body method value, cs each thread's critical-section
	// closure (it reads the thread from threads) and probe terminalChecks'
	// lock probe, which sets held; all are bound once per rig so starting
	// a replay, an operation or a probe allocates nothing.
	work  func(*tsx.Thread)
	cs    []func()
	probe func(*tsx.Thread)
	held  bool

	// Per-thread completing-attempt scratch (ticket, result, observed
	// x != y), rewritten by every attempt; the values of the completing
	// attempt survive.
	seqScratch []uint64
	resScratch []uint64
	incon      []bool

	// Edge capture: cur accumulates the open grant's footprint, txf the
	// per-thread live transactional footprints, lastEdge the closed
	// footprint of the most recent frontier-bound grant.
	cur       edge
	txf       [maxExploreProcs]lineSet
	finalNext bool
	finalOpen bool
	lastEdge  edge

	soloGrants int
	// done marks that the replay has emitted its last outcome: the rest
	// of the run is never observed, and terminalChecks does not run.
	// finishing marks that the rest is a finish-out (see finishOut), with
	// finishLeft grants left before the fallback stop; while it is set,
	// the monitor, the access tap and setViolation ignore everything.
	// stopAtEnd skips the finish-out: diagnose reads the machine after
	// the run, so its replay must end where it stopped.
	done       bool
	finishing  bool
	finishLeft int
	stopAtEnd  bool

	// vio is the first property failure observed anywhere in the run;
	// every outcome emitted from then on carries it.
	vio *Violation
	// final holds each thread's state at the end of the workload run, for
	// violation dumps: terminalChecks' lock probe is a Run of its own,
	// which resets the machine's threads. probed marks it filled.
	final  [maxExploreProcs]harness.ThreadState
	probed bool

	// Chain state (zero: plain scratch replay). chainLeft budgets how many
	// frontiers past its own node this replay may bank; sleep, stutter and
	// visited carry the node's search bookkeeping so the chain can mirror
	// the merge loop's child selection. visited is shared and read-only:
	// the merge only writes it after the wave's replays have joined. chain
	// receives the banked outcomes (nil without a chain budget). sleepBuf
	// and prefixBuf are the rig's storage for the chain's own sleep set
	// and extended prefix, so extending a chain allocates nothing.
	chainLeft int
	sleep     []sleepEntry
	stutter   [maxExploreProcs]uint8
	visited   map[uint64]uint64
	chain     *chainBuf
	outSet    bool
	sleepBuf  []sleepEntry
	prefixBuf []uint8
}

// newReplayer builds a replayer on a fresh fork of template tp.
func (e *explorer) newReplayer(tp *replayTemplate, prefix []uint8) *replayer {
	r := &replayer{}
	e.reset(r, tp, prefix)
	return r
}

// rigScheme is a scheme a rig keeps across replays: Reset returns it to
// its just-constructed state (core.SchemeStats.Reset, Adaptive.Reset).
type rigScheme interface {
	core.Scheme
	Reset()
}

// reset readies r to replay prefix on a fork of template tp: its machine
// is reset to the checkpoint in place (or forked, the first time), its
// locks get tp's constructed values and its scheme is reset (both built
// the first time r serves tp), and every other field starts as in a new
// replayer, with the scratch slices keeping their storage. A fresh fork is
// an empty replayer plus reset, so a reused rig cannot start differently
// from one.
func (e *explorer) reset(r *replayer, tp *replayTemplate, prefix []uint8) {
	m := r.m
	if m == nil {
		m = tsx.FromCheckpoint(tp.cp)
	} else {
		m.Reset(tp.cp)
	}
	if r.tp != tp {
		r.tp = tp
		r.lock = newLockLike(tp.main)
		r.aux = make([]locks.Lock, len(tp.aux))
		for i, a := range tp.aux {
			r.aux[i] = newLockLike(a)
		}
		sc, ok := e.assemble(r.lock, r.aux).(rigScheme)
		if !ok {
			panic(fmt.Sprintf("explore: scheme %s cannot be reset in place", e.cfg.Scheme))
		}
		r.scheme = sc
		r.rec = tp.rec.Fresh()
	}
	n := e.cfg.Threads
	if r.work == nil {
		r.work = r.body
		r.cs = make([]func(), n)
		for id := range r.cs {
			r.cs[id] = func() { r.criticalSection(r.threads[id]) }
		}
		r.probe = func(t *tsx.Thread) { r.held = r.lock.Held(t) }
	}
	copyLock(r.lock, tp.main)
	for i, a := range tp.aux {
		copyLock(r.aux[i], a)
	}
	r.scheme.Reset()
	r.rec.Reset()
	*r = replayer{
		cfg:        e.cfg,
		prefix:     prefix,
		m:          m,
		threads:    zeroed(r.threads, n),
		opsDone:    zeroed(r.opsDone, n),
		seqScratch: zeroed(r.seqScratch, n),
		resScratch: zeroed(r.resScratch, n),
		incon:      zeroed(r.incon, n),
		allSpec:    true,
		work:       r.work,
		cs:         r.cs,
		rec:        r.rec,
		x:          tp.x,
		y:          tp.y,
		tp:         tp,
		lock:       r.lock,
		aux:        r.aux,
		scheme:     r.scheme,
		lockWords:  tp.lockWords,
		preLock:    tp.preLock,
		sleepBuf:   r.sleepBuf[:0],
		prefixBuf:  r.prefixBuf[:0],
		probe:      r.probe,
	}
}

// zeroed returns s resized to n zero elements, in s's storage when it fits
// and otherwise grown as append grows, so a buffer resized again and again
// reallocates only logarithmically often.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// run executes the replay to its stopping point and emits the outcome(s).
func (r *replayer) run() {
	m := r.m
	m.SetObserver((*monitor)(r))
	m.SetInjector((*monInj)(r))
	m.SetStrategy(r)
	m.Run(r.cfg.Threads, r.work)
	m.SetStrategy(nil)
	m.SetInjector(nil)
	m.SetObserver(nil)
	if !r.done {
		// Every thread finished during the last grant: the run is
		// terminal at the prefix consumed so far (which a chained replay
		// may have extended past its own node).
		r.terminalChecks()
		r.emit(&runOutcome{terminal: true})
	}
}

// emit finishes an outcome — attaching the run's first violation and the
// closed final-grant footprint — and routes it: the first outcome belongs
// to the replay's own node, every later one is banked under the proc whose
// grant extended the chain's prefix.
func (r *replayer) emit(o *runOutcome) {
	o.violation = r.vio
	o.lastEdge = r.lastEdge
	if !r.outSet {
		r.out = *o
		r.outSet = true
		return
	}
	r.chain.outs = append(r.chain.outs, chainOut{proc: r.prefix[len(r.prefix)-1], out: *o})
}

// replayNode replays one frontier node and, chain budget permitting, keeps
// executing along the merge loop's predicted first-child line, banking one
// outcome per extra frontier into chain (emptied first; nil is allowed
// with chainDepth 0). With chainDepth 0 it is a plain scratch replay of
// the node. It runs on a rig from the free list, reset to the template in
// place; the outcomes it returns share no storage with the rig, which the
// next replay overwrites.
func (e *explorer) replayNode(nd *node, visited map[uint64]uint64, chainDepth int, chain *chainBuf) runOutcome {
	e.rigs.Lock()
	var r *replayer
	if k := len(e.rigs.free); k > 0 {
		r = e.rigs.free[k-1]
		e.rigs.free = e.rigs.free[:k-1]
	} else {
		r = &replayer{}
	}
	e.rigs.Unlock()

	e.reset(r, e.tmpl, nd.prefix)
	if chainDepth > 0 {
		chain.outs = chain.outs[:0]
		r.chain = chain
	}
	r.chainLeft = chainDepth
	r.sleep = nd.inherit
	r.stutter = nd.stutter
	r.visited = visited
	r.run()
	out := r.out

	e.rigs.Lock()
	e.rigs.free = append(e.rigs.free, r)
	e.rigs.Unlock()
	return out
}

// diagnose re-replays a prefix solely to attach a machine-state dump to a
// violation the search itself concluded (the deadlock rule, which is
// decided from edge footprints, not from inside a replay).
func (e *explorer) diagnose(prefix []uint8, kind, detail string) *Violation {
	r := e.newReplayer(e.diagTemplate(), prefix)
	r.stopAtEnd = true
	r.run()
	r.setViolation(kind, detail)
	return r.vio
}

// rediagnose re-replays a violation's schedule with the flight recorder
// enabled and returns the regenerated violation, now carrying trace
// events. Replays run ring-off (the recorder taxes every grant of every
// replay for a dump only one schedule ever needs); determinism makes the
// re-run fail identically at the same point.
func (e *explorer) rediagnose(v *Violation) *Violation {
	r := e.newReplayer(e.diagTemplate(), v.Schedule)
	r.run()
	if r.vio == nil {
		return v
	}
	return r.vio
}

// buildLock constructs the configuration's main lock in simulated memory,
// substituting the MutantCLHBlindRelease lock when asked.
func buildLock(c *Config, t *tsx.Thread) locks.Lock {
	if c.Mutant == MutantCLHBlindRelease {
		return newBrokenCLH(t)
	}
	mk := locks.MakerByName(c.Lock)
	if mk == nil {
		panic("explore: unknown lock " + c.Lock)
	}
	return mk(t)
}

// auxLocks and assemble split scheme construction as harness.SchemeSpec
// does — allocation in simulated memory, then pure-Go assembly — so the
// allocations are captured once in the template image while assembly runs
// once per rig. MutantSCMLazy substitutes its broken scheme.
func (e *explorer) auxLocks(t *tsx.Thread) []locks.Lock {
	if e.cfg.Mutant == MutantSCMLazy {
		return nil
	}
	return e.spec.AuxLocks(t)
}

func (e *explorer) assemble(main locks.Lock, aux []locks.Lock) core.Scheme {
	if e.cfg.Mutant == MutantSCMLazy {
		return newLazySCM(main)
	}
	return e.spec.Assemble(main, aux)
}

// copyLock restores dst, a lock of src's concrete type, to src's value.
// Every stock lock is a plain value type — simulated-memory addresses plus
// fixed-size per-thread scratch arrays — so a struct copy makes dst an
// independent Go-side handle onto the same simulated-memory lock, exactly
// as the constructor left it, without allocating. The
// MutantCLHBlindRelease lock is a plain value type too.
func copyLock(dst, src locks.Lock) {
	switch s := src.(type) {
	case *locks.TTAS:
		*dst.(*locks.TTAS) = *s
	case *locks.MCS:
		*dst.(*locks.MCS) = *s
	case *locks.Ticket:
		*dst.(*locks.Ticket) = *s
	case *locks.AdjustedTicket:
		*dst.(*locks.AdjustedTicket) = *s
	case *locks.CLH:
		*dst.(*locks.CLH) = *s
	case *locks.AdjustedCLH:
		*dst.(*locks.AdjustedCLH) = *s
	case *brokenCLH:
		*dst.(*brokenCLH) = *s
	default:
		panic(fmt.Sprintf("explore: cannot copy lock %T", src))
	}
}

// newLockLike returns a zero lock of l's concrete type, for copyLock to
// fill: a rig's own lock, built once per template.
func newLockLike(l locks.Lock) locks.Lock {
	return reflect.New(reflect.TypeOf(l).Elem()).Interface().(locks.Lock)
}

// adjustedLockWords returns the lock words the adjusted-lock invariant
// checks watch (empty for locks without an adjusted protocol).
func adjustedLockWords(l locks.Lock) []mem.Addr {
	switch l := l.(type) {
	case *locks.AdjustedTicket:
		return []mem.Addr{l.Addr(), l.Addr() + 1}
	case *locks.AdjustedCLH:
		return []mem.Addr{l.Addr()}
	}
	return nil
}

// Pick implements sim.Strategy: it forces the prefix, captures the frontier
// state when the prefix runs out, and plays forced endgame grants (a sole
// unfinished thread) to termination. Branching grants are single-step —
// target one past the chosen thread's clock, executing exactly one pending
// engine step, the finest interleaving granularity the machine exposes —
// while interior runs of same-proc prefix decisions are batched into one
// step-counted grant (sim.Decision.Steps), which is observably identical
// and saves a token handoff per batched decision. After capturing its own
// frontier a chain-budgeted replay keeps going: it predicts the merge
// loop's first child, plays it as one more single-step grant, and banks
// the next frontier too (see specNext). After its last outcome a replay
// finishes out (see finishOut).
func (r *replayer) Pick(choices []sim.Choice) sim.Decision {
	if r.finishing {
		return r.finishOut(choices)
	}
	r.closeEdge()
	if len(choices) == 1 {
		// Endgame: with one unfinished thread there is nothing to
		// branch on; play it out in large slices, bounded. A correct
		// scheme finishes well inside the first slice (nothing is
		// contended any more); a thread that keeps yielding is spinning
		// on a condition no one is left to establish.
		r.soloGrants++
		if r.soloGrants > soloBound {
			r.setViolation("progress", fmt.Sprintf(
				"thread %d cannot finish alone within %d large slices (every other thread is done: a correct scheme must terminate)",
				choices[0].ProcID, soloBound))
			r.emit(&runOutcome{truncated: true})
			r.done = true
			return sim.Decision{Stop: true}
		}
		r.openEdge(choices[0].ProcID)
		const soloSlice = 1 << 20 // cycles per endgame grant
		return sim.Decision{Index: 0, Target: choices[0].Clock + soloSlice}
	}
	if r.pos < len(r.prefix) {
		p := int(r.prefix[r.pos])
		last := len(r.prefix)
		n := 1
		for r.pos+n < last && r.prefix[r.pos+n] == uint8(p) {
			n++
		}
		if r.pos+n == last && n > 1 {
			// The final prefix grant stays single-step: its edge
			// footprint must be captured in isolation.
			n--
		}
		r.pos += n
		for i, c := range choices {
			if c.ProcID == p {
				if r.pos == last {
					r.finalNext = true
				}
				r.openEdge(p)
				if n == 1 {
					return sim.Decision{Index: i, Target: c.Clock + 1}
				}
				return sim.Decision{Index: i, Steps: n}
			}
		}
		panic(fmt.Sprintf("explore: replay diverged: proc %d not among %d choices", p, len(choices)))
	}
	// Frontier: capture the state for the prefix consumed so far.
	o := runOutcome{fp: r.fingerprint(), nEnabled: uint8(len(choices))}
	for i, c := range choices {
		o.enabled[i] = uint8(c.ProcID)
	}
	r.emit(&o)
	if i, ok := r.specNext(&o); ok {
		// Keep going along the predicted first child: extend the prefix
		// in the rig's own buffer (the node's prefix lives in the wave's
		// arena, shared with the search) and play the child as one more
		// single-step, edge-captured grant.
		r.chainLeft--
		r.prefixBuf = append(append(r.prefixBuf[:0], r.prefix...), o.enabled[i])
		r.prefix = r.prefixBuf
		r.pos = len(r.prefix)
		r.finalNext = true
		r.openEdge(int(o.enabled[i]))
		return sim.Decision{Index: i, Target: choices[i].Clock + 1}
	}
	r.done = true
	if r.stopAtEnd || testStopAtEnd != nil && testStopAtEnd() {
		return sim.Decision{Stop: true}
	}
	r.finishing = true
	r.finishLeft = finishGrants * len(choices)
	return r.finishOut(choices)
}

// Finish-out bounds: a replay past its last outcome grants the
// minimum-clock started thread finishSlice cycles at a time, at most
// finishGrants times per thread still running at that outcome. Most
// tails finish well inside the bound; a longer one (HLE-HWExt's solo
// waits run ~2.1e7 cycles, a mutant may never finish) falls back to the
// stop order. Larger slices cost more than the stops they save.
const (
	finishSlice  = 256
	finishGrants = 8
)

// testStopAtEnd, when non-nil and returning true, makes a replay stop at
// its last outcome instead of finishing out, as replays did before
// finish-out existed. Production leaves it nil; the differential tests
// compare the two endings.
var testStopAtEnd func() bool

// finishOut plays one grant of a finished replay's tail. Once the replay
// has emitted its last outcome nothing it does is observed, and the rig is
// reset before the next replay, so the tail only has to end the run: a
// thread that returns from its body needs no unwind, where a stop order
// panics through every unfinished thread's stack. Only threads that have
// started are granted: a stop order reaching a thread before its body
// starts costs no unwind, so once every started thread has returned the
// replay stops the rest. Granting the minimum-clock thread lets a waiter's
// holder run before the waiter; the bound keeps a tail that will not end
// cheap.
func (r *replayer) finishOut(choices []sim.Choice) sim.Decision {
	i := -1
	for j, c := range choices {
		if r.threads[c.ProcID] != nil && (i < 0 || c.Clock < choices[i].Clock) {
			i = j
		}
	}
	if i < 0 || r.finishLeft == 0 {
		return sim.Decision{Stop: true}
	}
	r.finishLeft--
	return sim.Decision{Index: i, Target: choices[i].Clock + finishSlice}
}

// specNext decides whether a chained replay keeps executing past the
// frontier it just banked, and along which child: the first the
// child-selection rule admits (chooseChildren), applied to the
// bookkeeping the node carried into the replay. The prediction is
// conservative, not exact: sleep entries contributed by same-wave earlier
// siblings and visited-mask bits added by nodes merged later in this wave
// are unknown here, so a prediction can name a child the merge ends up
// pruning. That never corrupts the search — the merge hands a chain only
// to the child whose proc it names, so a child the merge never enqueues
// simply takes nothing — it only wastes the banked suffix.
func (r *replayer) specNext(o *runOutcome) (int, bool) {
	if r.chainLeft <= 0 || r.vio != nil || len(r.prefix) >= maxDepth {
		return 0, false
	}
	nd := node{prefix: r.prefix, inherit: r.sleep, stutter: r.stutter}
	// The chain's sleep set goes to the rig's buffer. From the second
	// extension on, the inherited set IS that buffer: the rule keeps a
	// subsequence of it (no siblings here), so filtering in place never
	// overwrites an entry before reading it.
	ch := r.cfg.chooseChildren(&nd, &r.lastEdge, nil, o.enabledProcs(), r.visited[o.fp], r.sleepBuf[:0])
	if ch.nChildren == 0 {
		return 0, false
	}
	r.sleepBuf = ch.sleep
	r.sleep, r.stutter = ch.sleep, ch.stutter
	return slices.Index(o.enabledProcs(), ch.children[0]), true
}

func (r *replayer) openEdge(proc int) {
	r.cur = edge{tx: r.txf[proc]}
	r.finalOpen = r.finalNext
	r.finalNext = false
	if r.finalOpen {
		// A fresh frontier-bound grant invalidates the previous closed
		// edge: if the run terminates inside this grant the outcome's
		// footprint must read empty, exactly as a scratch replay's would.
		r.lastEdge = edge{}
	}
}

func (r *replayer) closeEdge() {
	if !r.finalOpen {
		return
	}
	r.lastEdge = r.cur
	r.finalOpen = false
}

// fingerprint hashes the machine-visible state: memory words, line
// conflict metadata, per-thread clocks, statistics, pending-reissue flags
// and in-flight transaction state, plus the checker's own per-thread
// progress. Thread-local register state is approximated by the clock
// (every engine step advances it deterministically with jitter disabled);
// the approximation is exact for schemes whose critical sections are
// properly isolated and is validated empirically by the mutation tests.
//
// The state is hashed in four independent lanes, folded at the end. One
// chain over every value serializes on its multiply latency; four chains
// overlap. Word w goes to lane w mod 4; line l's Readers and Writers go to
// lanes 0 and 1 for even l and to lanes 2 and 3 for odd l; each thread's
// fixed-size state is spread over the lanes in a fixed order. The fold
// chain takes the word count, each thread's presence mark and
// variable-length transaction state, and the checker's counts, which fix
// where every thread's lane values begin, and then the four lanes in
// order. Which state is hashed is what one chain would hash.
func (r *replayer) fingerprint() uint64 {
	mm := r.m.Mem
	words := mm.WordsInUse()
	seed := newFpHash()
	l0, l1, l2, l3 := seed, seed+1, seed+2, seed+3
	w := 0
	for ; w+4 <= words; w += 4 {
		l0.mix(mm.Read(mem.Addr(w)))
		l1.mix(mm.Read(mem.Addr(w + 1)))
		l2.mix(mm.Read(mem.Addr(w + 2)))
		l3.mix(mm.Read(mem.Addr(w + 3)))
	}
	if w < words {
		l0.mix(mm.Read(mem.Addr(w)))
	}
	if w+1 < words {
		l1.mix(mm.Read(mem.Addr(w + 1)))
	}
	if w+2 < words {
		l2.mix(mm.Read(mem.Addr(w + 2)))
	}
	lines := (words + mem.LineWords - 1) / mem.LineWords
	n := 0
	for ; n+2 <= lines; n += 2 {
		a, b := mm.LineByIndex(n), mm.LineByIndex(n+1)
		l0.mix(a.Readers)
		l1.mix(a.Writers)
		l2.mix(b.Readers)
		l3.mix(b.Writers)
	}
	if n < lines {
		a := mm.LineByIndex(n)
		l0.mix(a.Readers)
		l1.mix(a.Writers)
	}
	h := newFpHash()
	h.mix(uint64(words))
	for i := 0; i < r.cfg.Threads; i++ {
		t := r.threads[i]
		if t == nil {
			h.mix(0)
			continue
		}
		h.mix(1)
		t.MixTxState(h.mix)
		st := &t.Stats
		l0.mix(t.Clock())
		l1.mix(st.Begun)
		l2.mix(st.Committed)
		l3.mix(st.CommittedAccesses)
		for k, a := range st.Aborted {
			switch k & 3 {
			case 0:
				l0.mix(a)
			case 1:
				l1.mix(a)
			case 2:
				l2.mix(a)
			default:
				l3.mix(a)
			}
		}
		var flags uint64
		if t.ReissuePending() {
			flags |= 1
		}
		if r.incon[i] {
			flags |= 2
		}
		l0.mix(st.CommittedReadLines)
		l1.mix(st.CommittedWriteLines)
		l2.mix(uint64(r.opsDone[i]))
		l3.mix(r.seqScratch[i])
		l0.mix(r.resScratch[i])
		l1.mix(flags)
	}
	h.mix(uint64(r.rec.Len()))
	h.mix(uint64(r.nonSpecDepth))
	h.mix(uint64(l0))
	h.mix(uint64(l1))
	h.mix(uint64(l2))
	h.mix(uint64(l3))
	return uint64(h)
}

// body is the per-thread workload: Ops critical sections, each drawing a
// serialization ticket and incrementing the two-cell counter pair, with
// the per-operation checks applied as operations complete.
func (r *replayer) body(t *tsx.Thread) {
	id := t.ID
	r.threads[id] = t
	r.scheme.Setup(t)
	for op := 0; op < r.cfg.Ops; op++ {
		res := r.scheme.Run(t, r.cs[id])
		r.rec.Record(check.Op{Seq: r.seqScratch[id], Thread: id, Kind: "inc", Result: r.resScratch[id]})
		r.opsDone[id]++
		if !res.Spec {
			r.allSpec = false
		}
		if res.Attempts > attemptsBound {
			r.setViolation("progress", fmt.Sprintf(
				"thread %d op %d took %d execution attempts (bound %d)", id, op, res.Attempts, attemptsBound))
		}
		if r.incon[id] {
			r.setViolation("consistency", fmt.Sprintf(
				"thread %d op %d completed an execution that observed x != y (Lemma 1: no consistent-snapshot guarantee)", id, op))
		}
	}
}

// criticalSection is the checked workload: draw a ticket, read both
// counter cells (they live on distinct lines and are incremented together,
// so any execution must observe them equal — the Lemma 1 snapshot
// property), and increment both. Each increment makes the counters equal
// the ticket sequence, so in a serializable history every operation's
// result equals its own ticket.
func (r *replayer) criticalSection(t *tsx.Thread) {
	id := t.ID
	entered := !t.InTx()
	if entered {
		r.nonSpecDepth++
		if r.nonSpecDepth > 1 {
			r.setViolation("mutex", fmt.Sprintf(
				"thread %d entered the critical section non-speculatively while another thread held it", id))
		}
	}
	r.seqScratch[id] = r.rec.Ticket(t)
	vx := t.Load(r.x)
	vy := t.Load(r.y)
	r.incon[id] = vx != vy
	t.Store(r.x, vx+1)
	t.Store(r.y, vy+1)
	r.resScratch[id] = vx
	if entered {
		r.nonSpecDepth--
	}
}

// terminalChecks runs after every thread finished: serializability against
// the sequential counter model, final counter values, lock released, and —
// when every operation completed speculatively — the Theorems 1-2 bit-exact
// lock-word restoration for the adjusted locks.
func (r *replayer) terminalChecks() {
	next := uint64(0)
	model := func(string, uint64) uint64 {
		v := next
		next++
		return v
	}
	total := uint64(r.cfg.Threads * r.cfg.Ops)
	if got := r.rec.Len(); uint64(got) != total {
		r.setViolation("serializability", fmt.Sprintf("%d operations recorded, %d ran", got, total))
	} else if err := r.rec.Verify(model); err != nil {
		r.setViolation("serializability", err.Error())
	}
	if fx, fy := r.m.Mem.Read(r.x), r.m.Mem.Read(r.y); fx != total || fy != total {
		r.setViolation("serializability", fmt.Sprintf(
			"final counters x=%d y=%d, want %d: updates were lost or duplicated", fx, fy, total))
	}
	for i := 0; i < r.cfg.Threads; i++ {
		r.final[i] = r.threadState(i)
	}
	r.probed = true
	r.m.RunOne(r.probe)
	if r.held {
		r.setViolation("lock-restore", "main lock still held after every thread finished")
	}
	if r.allSpec {
		for i, a := range r.lockWords {
			if got := r.m.Mem.Read(a); got != r.preLock[i] {
				r.setViolation("lock-restore", fmt.Sprintf(
					"every critical section elided, yet lock word @%d is %d, pre-acquire value was %d (Theorems 1-2)",
					a, got, r.preLock[i]))
			}
		}
	}
}

// setViolation records the first property failure with a bounded
// deterministic diagnostic dump of the machine at detection time. The
// schedule it records is the prefix at detection time — for a chained
// replay, the extended prefix the chain had reached — which is exactly
// what a scratch replay of that prefix would record.
func (r *replayer) setViolation(kind, detail string) {
	if r.vio != nil || r.finishing {
		return
	}
	if r.cfg.OnlyKind != "" && kind != r.cfg.OnlyKind {
		// Hazard-class filter: the search is hunting a specific violation
		// kind; suppressing the others lets BFS dig past a shallower
		// class to the minimal counterexample of the requested one.
		return
	}
	f := &harness.Failure{
		Reason:  "explore-" + kind,
		Thread:  -1,
		Context: r.cfg.Label() + " schedule=" + FormatSchedule(r.prefix) + ": " + detail,
		Events:  r.m.TraceEvents(),
	}
	for i := 0; i < r.cfg.Threads; i++ {
		ts := r.final[i]
		if !r.probed {
			ts = r.threadState(i)
		}
		f.Clock = max(f.Clock, ts.Clock)
		f.Threads = append(f.Threads, ts)
	}
	r.vio = &Violation{
		Kind:     kind,
		Detail:   detail,
		Schedule: append([]uint8(nil), r.prefix...),
		Failure:  f,
	}
}

// threadState is thread i's state for a violation dump.
func (r *replayer) threadState(i int) harness.ThreadState {
	ts := harness.ThreadState{ID: i}
	if t := r.threads[i]; t != nil {
		ts.Clock = t.Clock()
		ts.Done = r.opsDone[i] == r.cfg.Ops
		ts.InTx = t.InTx()
		ts.Stats = t.Stats
	}
	return ts
}

// outcomesEqual reports whether two outcomes for the same prefix are
// bit-identical; the fork-validation mode and the differential tests use
// it to check banked outcomes against scratch replays.
func outcomesEqual(a, b *runOutcome) bool {
	return reflect.DeepEqual(*a, *b)
}

// monitor is the replayer's tsx.Observer view: transaction boundaries mark
// the open edge and reset the thread's live transactional footprint.
type monitor replayer

func (mo *monitor) BindMachine(*tsx.Machine) {}

func (mo *monitor) TxBegin(thread int, _ uint64) { mo.boundary(thread) }

func (mo *monitor) TxCommit(thread int, _, _ uint64, _ int) { mo.boundary(thread) }

func (mo *monitor) TxAbort(thread int, _, _ uint64, _ tsx.Cause, _, _ int, _, _ bool) {
	mo.boundary(thread)
}

func (mo *monitor) boundary(thread int) {
	if mo.finishing {
		return
	}
	mo.cur.boundary = true
	mo.txf[thread] = lineSet{}
}

func (mo *monitor) Serial(int, uint64, bool) {}

func (mo *monitor) Grant(int, uint64) {}

// monInj is the replayer's tsx.Injector view: a pure tap that records
// every access into the open edge (and the thread's transactional
// footprint) without injecting anything.
type monInj replayer

func (mi *monInj) Access(thread int, _ uint64, line int, write, inTx bool) (uint64, bool) {
	if mi.finishing {
		return 0, false
	}
	if line >= maxLines {
		panic(fmt.Sprintf("explore: access to cache line %d, but edge footprints are %d-bit line masks", line, maxLines))
	}
	mi.cur.acc.add(line, write)
	if inTx {
		mi.txf[thread].add(line, write)
	}
	return 0, false
}

func (mi *monInj) WriteCap(_ int, _ uint64, limit int) int { return limit }

func (mi *monInj) Grant(_ int, _, slice uint64) uint64 { return slice }
