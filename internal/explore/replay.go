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

// access is one simulated memory access observed during a grant.
type access struct {
	line  int
	write bool
}

// edge is the footprint of one grant: the accesses it performed, the
// granted thread's pre-existing transactional footprint (a foreign access
// to any of those lines dooms the transaction, so it matters for
// commutativity), and whether the grant crossed a transaction boundary
// (begin/commit/abort touch line metadata wholesale and are treated as
// dependent with everything).
type edge struct {
	accesses []access
	txLines  []access
	boundary bool
}

// writeFree reports whether the grant performed no write and crossed no
// transaction boundary — the stutter bound only caps runs of such grants.
func writeFree(e *edge) bool {
	if e.boundary {
		return false
	}
	for _, a := range e.accesses {
		if a.write {
			return false
		}
	}
	return true
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
	if a.boundary || b.boundary {
		return true
	}
	if len(a.accesses) == 0 || len(b.accesses) == 0 {
		return true
	}
	for _, x := range a.accesses {
		if hits(b, x) {
			return true
		}
	}
	for _, y := range b.accesses {
		if hits(a, y) {
			return true
		}
	}
	return false
}

func hits(e *edge, x access) bool {
	for _, a := range e.accesses {
		if a.line == x.line && (a.write || x.write) {
			return true
		}
	}
	for _, a := range e.txLines {
		if a.line == x.line && (a.write || x.write) {
			return true
		}
	}
	return false
}

func addFootprint(s *[]access, line int, write bool) {
	for i := range *s {
		if (*s)[i].line == line {
			if write {
				(*s)[i].write = true
			}
			return
		}
	}
	*s = append(*s, access{line: line, write: write})
}

// runOutcome is what one prefix replay reports back to the search.
type runOutcome struct {
	// fp and enabled describe the frontier state (prefix consumed, next
	// decision pending); meaningful only when neither terminal nor
	// truncated.
	fp      uint64
	enabled []uint8
	// lastEdge is the footprint of the final prefix grant.
	lastEdge edge
	// terminal: every thread finished and the terminal checks ran.
	terminal bool
	// truncated: a replay bound stopped the run.
	truncated bool
	// violation is the first property failure observed, or nil.
	violation *Violation
}

// chainOut is one outcome banked by a chained replay beyond its own node:
// exactly what a scratch replay of prefix would report. A chained replay is
// the search's stand-in for forking a mid-run machine — goroutine state
// (open transactions, scheduler positions) cannot be checkpointed, but a
// live run CAN keep executing past its frontier, and because strategy-mode
// runs are pure functions of their decision sequence the banked outcome is
// bit-identical to the replay it saves.
type chainOut struct {
	prefix []uint8
	out    runOutcome
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
	// owns a machine, its memory arrays and transaction contexts, and
	// its scratch slices, and is reset to tmpl in place for every
	// replay. A replay takes one and returns it when it ends, so the list
	// never holds more rigs than replays ever ran at the same time.
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
// cell, the counter lines — lives in the checkpoint; the Go-side driver
// objects are value-cloned per fork (cloneLock, Recorder.Fresh,
// assemble), so a fork costs a memory copy instead of re-executing
// every constructor through the engine.
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
	m.RunOne(func(t *tsx.Thread) {
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

// fpHash accumulates a state fingerprint one word at a time. Each mix is a
// splitmix64-style avalanche round over the running state xor the input
// word — order-dependent like the FNV chain it replaced, but one round of
// multiply-shift instead of eight byte steps, since fingerprinting every
// memory word of every explored state is the single hottest loop in a
// sweep. Values are never persisted or compared across binaries; only
// distinctness within one search matters.
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
		MemWords:      1 << 9, // the workloads use a few dozen words; small memory keeps per-replay setup cheap
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
	lock    locks.Lock
	scheme  core.Scheme
	rec     *check.Recorder
	x, y    mem.Addr

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
	txf       [][]access
	finalNext bool
	finalOpen bool
	lastEdge  edge

	soloGrants int
	stopped    bool

	// vio is the first property failure observed anywhere in the run;
	// every outcome emitted from then on carries it.
	vio *Violation

	// Chain state (zero: plain scratch replay). chainLeft budgets how many
	// frontiers past its own node this replay may bank; sleep, stutter and
	// visited carry the node's search bookkeeping so the chain can mirror
	// the merge loop's child selection. visited is shared and read-only:
	// the merge only writes it after the wave's replays have joined.
	chainLeft int
	sleep     []sleepEntry
	stutter   [maxExploreProcs]uint8
	visited   map[uint64]uint64
	chain     []chainOut
	outSet    bool
}

// newReplayer builds a replayer on a fresh fork of template tp.
func (e *explorer) newReplayer(tp *replayTemplate, prefix []uint8) *replayer {
	r := &replayer{}
	e.reset(r, tp, prefix)
	return r
}

// reset readies r to replay prefix on a fork of template tp: its machine
// is reset to the checkpoint in place (or forked, the first time), the
// locks are value-cloned and the scheme assembled afresh, and every other
// field starts as in a new replayer, with the scratch slices keeping
// their storage. A fresh fork is an empty replayer plus reset, so a reused
// rig cannot start differently from one.
func (e *explorer) reset(r *replayer, tp *replayTemplate, prefix []uint8) {
	m := r.m
	if m == nil {
		m = tsx.FromCheckpoint(tp.cp)
	} else {
		m.Reset(tp.cp)
	}
	n := e.cfg.Threads
	txf := r.txf
	if len(txf) != n {
		txf = make([][]access, n)
	}
	for i := range txf {
		txf[i] = txf[i][:0]
	}
	*r = replayer{
		cfg:        e.cfg,
		prefix:     prefix,
		m:          m,
		threads:    zeroed(r.threads, n),
		opsDone:    zeroed(r.opsDone, n),
		seqScratch: zeroed(r.seqScratch, n),
		resScratch: zeroed(r.resScratch, n),
		incon:      zeroed(r.incon, n),
		txf:        txf,
		cur:        edge{accesses: r.cur.accesses[:0], txLines: r.cur.txLines[:0]},
		allSpec:    true,
		lock:       cloneLock(tp.main),
		rec:        tp.rec.Fresh(),
		x:          tp.x,
		y:          tp.y,
		lockWords:  tp.lockWords,
		preLock:    tp.preLock,
	}
	var aux []locks.Lock
	if len(tp.aux) > 0 {
		aux = make([]locks.Lock, len(tp.aux))
		for i, a := range tp.aux {
			aux[i] = cloneLock(a)
		}
	}
	r.scheme = e.assemble(r.lock, aux)
}

// zeroed returns s resized to n zero elements, in s's storage when it fits.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// run executes the replay to its stopping point and emits the outcome(s).
func (r *replayer) run() {
	m := r.m
	m.SetObserver((*monitor)(r))
	m.SetInjector((*monInj)(r))
	m.SetStrategy(r)
	m.Run(r.cfg.Threads, r.body)
	m.SetStrategy(nil)
	m.SetInjector(nil)
	m.SetObserver(nil)
	if !r.stopped {
		// Every thread finished during the last grant: the run is
		// terminal at the prefix consumed so far (which a chained replay
		// may have extended past its own node).
		r.terminalChecks()
		r.emit(runOutcome{terminal: true})
	}
}

// emit finishes an outcome — attaching the run's first violation and the
// closed final-grant footprint — and routes it: the first outcome belongs
// to the replay's own node, every later one is banked for the prefix the
// chain had reached.
func (r *replayer) emit(o runOutcome) {
	o.violation = r.vio
	o.lastEdge = r.lastEdge
	if !r.outSet {
		r.out = o
		r.outSet = true
		return
	}
	r.chain = append(r.chain, chainOut{
		prefix: append([]uint8(nil), r.prefix...),
		out:    o,
	})
}

// replayNode replays one frontier node and, chain budget permitting, keeps
// executing along the merge loop's predicted first-child line, banking one
// outcome per extra frontier. With chainDepth 0 it is a plain scratch
// replay of the node. It runs on a rig from the free list, reset to the
// template in place; the outcomes it returns share no storage with the
// rig, which the next replay overwrites.
func (e *explorer) replayNode(nd *node, visited map[uint64]uint64, chainDepth int) (runOutcome, []chainOut) {
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
	r.chainLeft = chainDepth
	r.sleep = nd.inherit
	r.stutter = nd.stutter
	r.visited = visited
	r.run()
	out, chain := r.out, r.chain

	e.rigs.Lock()
	e.rigs.free = append(e.rigs.free, r)
	e.rigs.Unlock()
	return out, chain
}

// diagnose re-replays a prefix solely to attach a machine-state dump to a
// violation the search itself concluded (the deadlock rule, which is
// decided from edge footprints, not from inside a replay).
func (e *explorer) diagnose(prefix []uint8, kind, detail string) *Violation {
	r := e.newReplayer(e.diagTemplate(), prefix)
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
// per fork. MutantSCMLazy substitutes its broken scheme.
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

// cloneLock value-copies a constructed lock. Every stock lock is a plain
// value type — simulated-memory addresses plus fixed-size per-thread
// scratch arrays — so a struct copy yields an independent Go-side handle
// onto the same simulated-memory lock, exactly as the constructor left it.
// The MutantCLHBlindRelease lock is a plain value type too.
func cloneLock(l locks.Lock) locks.Lock {
	switch l := l.(type) {
	case *locks.TTAS:
		c := *l
		return &c
	case *locks.MCS:
		c := *l
		return &c
	case *locks.Ticket:
		c := *l
		return &c
	case *locks.AdjustedTicket:
		c := *l
		return &c
	case *locks.CLH:
		c := *l
		return &c
	case *locks.AdjustedCLH:
		c := *l
		return &c
	case *brokenCLH:
		c := *l
		return &c
	}
	panic(fmt.Sprintf("explore: cannot clone lock %T", l))
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
// the next frontier too (see specNext).
func (r *replayer) Pick(choices []sim.Choice) sim.Decision {
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
			r.emit(runOutcome{truncated: true})
			r.stopped = true
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
	o := runOutcome{
		fp:      r.fingerprint(),
		enabled: make([]uint8, len(choices)),
	}
	for i, c := range choices {
		o.enabled[i] = uint8(c.ProcID)
	}
	r.emit(o)
	if i, ok := r.specNext(&o); ok {
		// Keep going along the predicted first child: extend the prefix
		// (the append never aliases the node's slice — node prefixes are
		// built at exact capacity, and the full-slice expression forces a
		// copy regardless) and play the child as one more single-step,
		// edge-captured grant.
		r.chainLeft--
		r.prefix = append(r.prefix[:len(r.prefix):len(r.prefix)], o.enabled[i])
		r.pos = len(r.prefix)
		r.finalNext = true
		r.openEdge(int(o.enabled[i]))
		return sim.Decision{Index: i, Target: choices[i].Clock + 1}
	}
	r.stopped = true
	return sim.Decision{Stop: true}
}

// specNext decides whether a chained replay keeps executing past the
// frontier it just banked, and along which child: the first the
// child-selection rule admits (chooseChildren), applied to the
// bookkeeping the node carried into the replay. The prediction is
// conservative, not exact: sleep entries contributed by same-wave earlier
// siblings and visited-mask bits added by nodes merged later in this wave
// are unknown here, so a prediction can name a child the merge ends up
// pruning. That never corrupts the search — the bank is consulted by exact
// prefix, so a child the merge never enqueues is simply never looked up —
// it only wastes the banked suffix.
func (r *replayer) specNext(o *runOutcome) (int, bool) {
	if r.chainLeft <= 0 || r.vio != nil || len(r.prefix) >= maxDepth {
		return 0, false
	}
	nd := node{prefix: r.prefix, inherit: r.sleep, stutter: r.stutter}
	ch := r.cfg.chooseChildren(&nd, &r.lastEdge, nil, o.enabled, r.visited[o.fp])
	if len(ch.children) == 0 {
		return 0, false
	}
	r.sleep, r.stutter = ch.sleep, ch.stutter
	return slices.Index(o.enabled, ch.children[0]), true
}

func (r *replayer) openEdge(proc int) {
	r.cur.accesses = r.cur.accesses[:0]
	r.cur.txLines = append(r.cur.txLines[:0], r.txf[proc]...)
	r.cur.boundary = false
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
	r.lastEdge = edge{
		accesses: append([]access(nil), r.cur.accesses...),
		txLines:  append([]access(nil), r.cur.txLines...),
		boundary: r.cur.boundary,
	}
	r.finalOpen = false
}

// fingerprint hashes the machine-visible state: memory words, line
// conflict metadata, per-thread clocks, statistics, pending-reissue flags
// and in-flight transaction state, plus the checker's own per-thread
// progress. Thread-local register state is approximated by the clock
// (every engine step advances it deterministically with jitter disabled);
// the approximation is exact for schemes whose critical sections are
// properly isolated and is validated empirically by the mutation tests.
func (r *replayer) fingerprint() uint64 {
	h := newFpHash()
	mm := r.m.Mem
	words := mm.WordsInUse()
	h.mix(uint64(words))
	for i := 0; i < words; i++ {
		h.mix(mm.Read(mem.Addr(i)))
	}
	lines := (words + mem.LineWords - 1) / mem.LineWords
	for l := 0; l < lines; l++ {
		lm := mm.LineByIndex(l)
		h.mix(lm.Readers)
		h.mix(lm.Writers)
	}
	for i := 0; i < r.cfg.Threads; i++ {
		t := r.threads[i]
		if t == nil {
			h.mix(0)
			continue
		}
		h.mix(1)
		h.mix(t.Clock())
		st := t.Stats
		h.mix(st.Begun)
		h.mix(st.Committed)
		for _, a := range st.Aborted {
			h.mix(a)
		}
		h.mix(st.CommittedReadLines)
		h.mix(st.CommittedWriteLines)
		h.mix(st.CommittedAccesses)
		if t.ReissuePending() {
			h.mix(1)
		} else {
			h.mix(0)
		}
		t.MixTxState(h.mix)
		h.mix(uint64(r.opsDone[i]))
		h.mix(r.seqScratch[i])
		h.mix(r.resScratch[i])
		if r.incon[i] {
			h.mix(1)
		} else {
			h.mix(0)
		}
	}
	h.mix(uint64(r.rec.Len()))
	h.mix(uint64(r.nonSpecDepth))
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
		res := r.scheme.Run(t, func() { r.criticalSection(t) })
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
	held := false
	r.m.RunOne(func(t *tsx.Thread) { held = r.lock.Held(t) })
	if held {
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
	if r.vio != nil {
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
		ts := harness.ThreadState{ID: i}
		if t := r.threads[i]; t != nil {
			ts.Clock = t.Clock()
			ts.Done = r.opsDone[i] == r.cfg.Ops
			ts.InTx = t.InTx()
			ts.Stats = t.Stats
			if ts.Clock > f.Clock {
				f.Clock = ts.Clock
			}
		}
		f.Threads = append(f.Threads, ts)
	}
	r.vio = &Violation{
		Kind:     kind,
		Detail:   detail,
		Schedule: append([]uint8(nil), r.prefix...),
		Failure:  f,
	}
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

func (mo *monitor) TxBegin(thread int, _ uint64) {
	r := (*replayer)(mo)
	r.cur.boundary = true
	r.txf[thread] = r.txf[thread][:0]
}

func (mo *monitor) TxCommit(thread int, _, _ uint64, _ int) {
	r := (*replayer)(mo)
	r.cur.boundary = true
	r.txf[thread] = r.txf[thread][:0]
}

func (mo *monitor) TxAbort(thread int, _, _ uint64, _ tsx.Cause, _, _ int, _, _ bool) {
	r := (*replayer)(mo)
	r.cur.boundary = true
	r.txf[thread] = r.txf[thread][:0]
}

func (mo *monitor) Serial(int, uint64, bool) {}

func (mo *monitor) Grant(int, uint64) {}

// monInj is the replayer's tsx.Injector view: a pure tap that records
// every access into the open edge (and the thread's transactional
// footprint) without injecting anything.
type monInj replayer

func (mi *monInj) Access(thread int, _ uint64, line int, write, inTx bool) (uint64, bool) {
	r := (*replayer)(mi)
	r.cur.accesses = append(r.cur.accesses, access{line: line, write: write})
	if inTx {
		addFootprint(&r.txf[thread], line, write)
	}
	return 0, false
}

func (mi *monInj) WriteCap(_ int, _ uint64, limit int) int { return limit }

func (mi *monInj) Grant(_ int, _, slice uint64) uint64 { return slice }
