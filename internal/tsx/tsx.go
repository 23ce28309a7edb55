// Package tsx simulates Intel's Transactional Synchronization Extensions
// (TSX) as implemented by the Haswell microarchitecture, following the rules
// the paper extracts from Intel's documentation (§2):
//
//   - Read and write sets are tracked at cache-line granularity. The write
//     set must fit in the 32 KB L1 (512 lines); the read set is tracked
//     precisely in the L1 and imprecisely beyond it, with an eviction-abort
//     probability that rises as the read set grows.
//   - Conflict management is requestor wins: an incoming write dooms every
//     other transaction holding the line in its read or write set; an
//     incoming read dooms other transactional writers. The thread that
//     detects the conflict aborts.
//   - Transactions are prone to spurious aborts even without conflicts.
//   - PAUSE inside a transaction aborts it.
//   - HLE: an XACQUIRE-prefixed store begins a transaction and elides the
//     store, placing the lock's cache line in the read set while giving the
//     transaction the illusion the store happened. The XRELEASE store must
//     restore the lock to its pre-XACQUIRE value or the transaction aborts.
//     After an abort, the acquiring store is re-executed once without
//     elision.
//
// Hardware rollback is modeled by panic/recover unwinding to the begin
// point, which is why critical sections execute as closures.
package tsx

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"

	"hle/internal/mem"
	"hle/internal/sim"
)

// CostModel assigns virtual-cycle costs to simulated operations. The
// absolute values are loosely modeled on Haswell latencies; only ratios
// matter for the shapes the benchmarks reproduce.
type CostModel struct {
	Load   uint64 // cached load
	Store  uint64 // cached store
	RMW    uint64 // atomic read-modify-write (LOCK-prefixed)
	Begin  uint64 // transaction begin (XBEGIN / XACQUIRE)
	Commit uint64 // transaction commit
	Abort  uint64 // rollback penalty
	Pause  uint64 // PAUSE instruction
	Wait   uint64 // one iteration of a hardware suspension loop (Chapter 7)
	Miss   uint64 // cache-miss surcharge (used when Config.CacheLines > 0)
}

// DefaultCosts is a Haswell-flavored cost model.
func DefaultCosts() CostModel {
	return CostModel{
		Load:   4,
		Store:  4,
		RMW:    20,
		Begin:  40,
		Commit: 30,
		Abort:  150,
		Pause:  10,
		Wait:   20,
		Miss:   60,
	}
}

// Subscription selects when an elided transaction's lock word enters its
// read set. It is a per-thread mode (Thread.SetSubscription): the scheme
// knows whether its lock elides lazily, so eager and lazy schemes share
// one machine image.
type Subscription uint8

const (
	// SubEager subscribes at transaction begin: the paper's scheme and
	// Haswell's HLE, where the lock line joins the read set at XACQUIRE.
	SubEager Subscription = iota
	// SubLazy defers the subscription to commit time, removing the lock
	// line from the conflict footprint for the transaction's whole body —
	// the lazy-subscription design whose safety Dice et al. analyze in
	// "Hardware extensions to make lazy subscription safe". On Sound
	// hardware it models their FIXED pipeline: the commit-time lock check
	// is ordered before the write-set drain, and a lock-line write
	// arriving during the commit window aborts the transaction. See
	// Thread.LazySubscribe for the RTM path.
	SubLazy
)

// String returns the mode's short name.
func (s Subscription) String() string {
	if s == SubLazy {
		return "lazy"
	}
	return "eager"
}

// Unsound selects a deliberately broken variant of the simulated hardware
// (Config.Unsound). Each non-zero value removes safety mechanisms so the
// model checker can reproduce the hazard they exist for and prove its
// mutation tests sharp. UnsoundLazyNaive is also the hardware of the
// naive-lazy schemes, which the ext-lazy sweep runs to count the updates
// the hazard loses.
type Unsound uint8

const (
	// Sound is the hardware as specified.
	Sound Unsound = iota
	// UnsoundHWExtNoSuspend removes the Chapter 7 extension's
	// suspend-on-miss wait while keeping the rest of HWExt: elided readers
	// can observe the Lemma 1 inconsistent snapshot.
	UnsoundHWExtNoSuspend
	// UnsoundLazyNaive turns off both Dice et al. fixes: the commit-time
	// lock check runs after the write-set drain, and a doom arriving in
	// the commit window is ignored.
	UnsoundLazyNaive
	// UnsoundLazySkipCheck skips the commit-time lock subscription
	// entirely: the transaction never subscribes at all.
	UnsoundLazySkipCheck
	// UnsoundLazyDrainFirst removes the first fix only: the commit-time
	// lock check runs AFTER the drain, so a failing check aborts too late
	// and the published writes stand.
	UnsoundLazyDrainFirst
	// UnsoundLazyNoWindowAbort removes the second fix only: a conflicting
	// write (including a pessimistic acquirer taking the lock) that dooms
	// the transaction during the commit window is ignored.
	UnsoundLazyNoWindowAbort
)

// Config describes the simulated machine and its TSX implementation.
type Config struct {
	// Procs is the number of simulated hardware threads (the paper's
	// machine exposes 8).
	Procs int
	// Seed drives every random decision; equal seeds give equal runs.
	Seed int64
	// Quantum is the scheduler quantum in cycles (see internal/sim).
	Quantum uint64
	// MemWords is the initial size of simulated memory in 64-bit words.
	MemWords int
	// Layout selects the allocator's placement policy (packed, padded,
	// colored, arena — see mem.Layout). The zero value is the packed
	// baseline, byte-identical to the pre-placement allocator. Layout is
	// part of the machine image: checkpoints carry it (inside the memory
	// snapshot), so forked machines continue the exact layout.
	Layout mem.Layout

	// WriteSetLines is the hard write-set capacity: 512 lines models the
	// 32 KB L1 the paper measures in Figure 2.1.
	WriteSetLines int
	// L1ReadLines is the precisely-tracked read-set capacity.
	L1ReadLines int
	// ReadSetLines is the total read-set capacity of the imprecise
	// secondary tracking structure (Figure 2.1 shows reads surviving to
	// multi-megabyte sizes; 131072 lines models 8 MB).
	ReadSetLines int
	// EvictExponent shapes the imprecise tracker's per-line eviction
	// probability, ((n-L1)/(cap-L1))^EvictExponent.
	EvictExponent float64
	// SpuriousPerAccess is the probability that any single transactional
	// access spuriously aborts the transaction.
	SpuriousPerAccess float64
	// PauseAborts controls whether PAUSE inside a transaction aborts it
	// (true on Haswell).
	PauseAborts bool
	// MaxTxAccesses is a safety bound on accesses per transaction.
	MaxTxAccesses int

	// HWExt enables the Chapter 7 hardware extension: conflicts on the
	// elided lock line do not abort; the transaction keeps running from
	// its cache and suspends on a miss while the lock is held.
	HWExt bool
	// Unsound selects a deliberately broken variant of the hardware
	// (see Unsound). The zero value, Sound, is the hardware as specified.
	// The others are seeded faults for the model checker's mutants and
	// hazard reproductions (internal/explore); UnsoundLazyNaive also backs
	// the naive-lazy schemes of the ext-lazy sweep. Set it only where a
	// lost update is the measurement, not a failure.
	Unsound Unsound
	// CacheLines enables per-thread cache-locality cost modeling: each
	// thread's accesses to lines outside its most-recent CacheLines
	// lines pay Costs.Miss extra. Zero (the default) disables the model;
	// conflict detection is unaffected either way.
	CacheLines int

	// CostJitter randomizes each charged cost multiplicatively in
	// [1, 1+CostJitter), modeling microarchitectural noise. Without it,
	// identical loops phase-lock into conflict-free lockstep patterns
	// that real machines never sustain. Negative disables; zero selects
	// the default (0.5).
	CostJitter float64

	// TraceRing, when positive, sizes a per-machine flight recorder that
	// keeps the last TraceRing engine events (see Machine.TraceEvents).
	// Watchdog diagnostic dumps and hle-trace read it; zero disables
	// it. Each machine owns its ring, so host-parallel experiment points
	// may record concurrently.
	TraceRing int

	// NestHLEInRTM, when true, lets an XACQUIRE inside an RTM
	// transaction start lock elision (Algorithm 3 verbatim). Haswell
	// does not support this — the paper's experiments emulate elision
	// with RTM — so the default is false and the prefix is ignored
	// inside RTM, exactly as on the real hardware.
	NestHLEInRTM bool

	Costs CostModel
}

// DefaultConfig returns a configuration modeling the paper's Core i7-4770
// testbed with n hardware threads.
func DefaultConfig(n int) Config {
	return Config{
		Procs:             n,
		Seed:              1,
		MemWords:          1 << 16,
		WriteSetLines:     512,    // 32 KB / 64 B
		L1ReadLines:       512,    // 32 KB / 64 B
		ReadSetLines:      131072, // 8 MB / 64 B
		EvictExponent:     8,
		SpuriousPerAccess: 1e-6,
		CostJitter:        0.5,
		PauseAborts:       true,
		MaxTxAccesses:     1 << 21,
		Costs:             DefaultCosts(),
	}
}

// MaxProcs is the most simulated hardware threads a machine supports
// (line metadata is a 64-bit thread mask).
const MaxProcs = 64

// Machine is a simulated multicore with TSX. Create one per experiment;
// its simulated memory persists across Run calls, so a workload can be
// populated non-transactionally and then exercised by many threads.
type Machine struct {
	cfg Config
	Mem *mem.Memory

	// threads is the thread table Run returns: entry i points at
	// threadStore[i] once proc i's body has started, nil before. Both are
	// reused by every Run, so a Thread stays valid only until the next Run.
	threads     []*Thread
	threadStore []Thread
	// running is set for the duration of a Run.
	running bool
	// runner is the scheduler every Run reuses; procBody, grantHook and
	// onGrantHook are bound once, on the first Run, so starting a Run
	// allocates nothing. body is the current Run's workload.
	runner      sim.Runner
	procBody    func(*sim.Proc)
	grantHook   func(procID int, clock, slice uint64) uint64
	onGrantHook func(procID int, clock uint64)
	body        func(*Thread)

	// ring is the flight recorder (nil unless Config.TraceRing > 0).
	ring *traceRing
	// obs and inj are the profiling observer and the fault injector
	// installed via SetObserver and SetInjector (nil when off). They are
	// per-experiment hooks, not part of the machine image: checkpoints and
	// clones start without them.
	obs Observer
	inj Injector
	// lineLabels and lockLines are the symbolic cache-line registry fed
	// by Thread.LabelLines/LabelLockLines; profiles resolve hot line
	// indices through them. Nil until the first label is registered.
	lineLabels map[int]string
	lockLines  map[int]struct{}
	// labelPrefix is prepended to labels registered while it is set
	// (SetLabelPrefix); construction-time state only, not part of the
	// machine image.
	labelPrefix string
	// watchdog is the liveness check installed via SetWatchdog.
	watchdog func(minClock uint64) bool
	// strategy is the scheduling strategy installed via SetStrategy.
	strategy sim.Strategy
	// stopped records whether the previous Run was watchdog-stopped.
	stopped bool
	// txCtx pools each proc's transaction context across Runs (see
	// txContext): a Thread starts afresh every Run, its hardware context
	// carries over.
	txCtx []*txState
	// live has bit i set while thread i of the current Run is inside a
	// transaction (its tx is non-nil). requestLine consults it to skip
	// the line-metadata lookup when no other thread can be doomed. Run
	// clears it: a watchdog-stopped run leaves its threads' tx behind.
	live uint64

	// logOneMinusP caches log1p(-SpuriousPerAccess) for the per-begin
	// geometric draw.
	logOneMinusP float64
}

// NewMachine builds a machine from cfg, applying defaults for zero fields.
func NewMachine(cfg Config) *Machine {
	def := DefaultConfig(cfg.Procs)
	if cfg.Procs <= 0 {
		cfg.Procs = 8
	}
	if cfg.Procs > 64 {
		panic("tsx: at most 64 simulated hardware threads")
	}
	if cfg.MemWords == 0 {
		cfg.MemWords = def.MemWords
	}
	if cfg.WriteSetLines == 0 {
		cfg.WriteSetLines = def.WriteSetLines
	}
	if cfg.L1ReadLines == 0 {
		cfg.L1ReadLines = def.L1ReadLines
	}
	if cfg.ReadSetLines == 0 {
		cfg.ReadSetLines = def.ReadSetLines
	}
	if cfg.EvictExponent == 0 {
		cfg.EvictExponent = def.EvictExponent
	}
	if cfg.MaxTxAccesses == 0 {
		cfg.MaxTxAccesses = def.MaxTxAccesses
	}
	if cfg.CostJitter == 0 {
		cfg.CostJitter = def.CostJitter
	} else if cfg.CostJitter < 0 {
		cfg.CostJitter = 0
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	m := &Machine{
		cfg: cfg,
		Mem: mem.NewWithLayout(cfg.MemWords, cfg.Layout),
	}
	if cfg.TraceRing > 0 {
		m.ring = &traceRing{buf: make([]TraceEvent, cfg.TraceRing)}
	}
	if cfg.SpuriousPerAccess > 0 {
		m.logOneMinusP = math.Log1p(-cfg.SpuriousPerAccess)
	}
	return m
}

// Config returns the machine's effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// Checkpoint is a frozen machine image: configuration, a copy of the
// simulated memory (the words below its bump pointer, which is all the
// memory holds, line metadata when any is set, allocator state), and
// the symbolic line registry. It is immutable once captured — one
// checkpoint can seed any number of independent machines, concurrently —
// which is what makes it a fork point: capture once after an expensive
// phase (workload population by Fill, a soak's fill), then FromCheckpoint
// per experiment instead of re-executing the phase, and Release each fork
// when the experiment ends so the next FromCheckpoint recycles it. Threads'
// clocks and statistics are not part of the image: every Run starts its
// threads at clock 0.
//
// A checkpoint can only be captured while the machine is quiescent
// (between Run calls). Mid-run machine state lives partly in goroutine
// stacks — open transactions, scheduler handoff positions — which no
// snapshot can capture; every Run drains thread-local caches back into the
// memory image as bodies finish, so a quiescent machine's entire state IS
// its memory image plus configuration. Callers that want mid-run forking
// (the schedule explorer in internal/explore) instead extend a live run
// past the fork point and bank the outcomes, which is equivalent because
// strategy-driven runs are pure functions of their decision sequence.
type Checkpoint struct {
	cfg          Config
	snap         *mem.Snapshot
	lineLabels   map[int]string
	lockLines    map[int]struct{}
	logOneMinusP float64
}

// Checkpoint captures the machine's state. It must not be called while the
// machine is running.
func (m *Machine) Checkpoint() *Checkpoint {
	if m.running {
		panic("tsx: Checkpoint while the machine is running")
	}
	// Machines forked from the checkpoint start fault-free with an empty
	// flight recorder of their own: injectors, observers and watchdogs are
	// per-experiment, not part of the machine image, and a shared ring or
	// collector would race under the host-parallel pool. Line labels ARE
	// part of the image: they describe memory the checkpoint copied.
	return &Checkpoint{
		cfg:          m.cfg,
		snap:         m.Mem.Snapshot(),
		lineLabels:   maps.Clone(m.lineLabels),
		lockLines:    maps.Clone(m.lockLines),
		logOneMinusP: m.logOneMinusP,
	}
}

// FromCheckpoint returns a machine holding the checkpoint's image: the
// newest machine handed back by Release, Reset to cp, or a new one when
// none is waiting. Either way the result is indistinguishable from a new
// machine restored to cp. The checkpoint is not consumed.
func FromCheckpoint(cp *Checkpoint) *Machine {
	m := takeReleased()
	m.Reset(cp)
	return m
}

// Release hands the machine to a later FromCheckpoint, which resets it to
// its own checkpoint; the caller must not use the machine, or any Thread
// its last Run returned, again. A sweep that releases each point's fork
// reuses memory arrays, thread table, scheduler and transaction contexts
// per host worker rather than building them per point, so its peak heap
// does not depend on when the garbage collector runs.
func (m *Machine) Release() {
	if m.running {
		panic("tsx: Release while the machine is running")
	}
	released.Lock()
	defer released.Unlock()
	if slices.Contains(released.list, m) {
		panic("tsx: machine released twice")
	}
	if over := len(released.list) + 1 - runtime.GOMAXPROCS(0); over > 0 {
		released.list = slices.Delete(released.list, 0, over)
	}
	released.list = append(released.list, m)
}

// released holds the machines handed back by Release, oldest first, at
// most one per host worker; older ones are dropped for the collector.
var released struct {
	sync.Mutex
	list []*Machine
}

// takeReleased removes and returns the newest released machine, or a new
// empty one when there is none. slices.Delete clears the vacated slot: a
// pointer left behind in the backing array would keep the taken machine's
// memory image reachable after it is released again and dropped.
func takeReleased() *Machine {
	released.Lock()
	defer released.Unlock()
	n := len(released.list)
	if n == 0 {
		return &Machine{}
	}
	m := released.list[n-1]
	released.list = slices.Delete(released.list, n-1, n)
	return m
}

// Reset restores the machine to a checkpoint's image in place: afterwards
// it is indistinguishable from a new machine restored to cp, whatever it
// ran before — a larger or smaller image, a watchdog-stopped run. Memory
// arrays, free lists, the line-label maps, the flight recorder's buffer,
// the thread table, the scheduler and the pooled transaction contexts are
// reused rather than reallocated, so a loop that forks image after image
// (the model checker's replays, FromCheckpoint over released machines)
// stops allocating once its storage has grown. Threads returned by the
// last Run stay readable until the next Run; only their transaction
// contexts move on. Hooks (observer, injector, watchdog, strategy) and the
// label prefix are cleared, as on a new fork.
func (m *Machine) Reset(cp *Checkpoint) {
	if m.running {
		panic("tsx: Reset while the machine is running")
	}
	m.cfg = cp.cfg
	if m.Mem == nil {
		m.Mem = new(mem.Memory)
	}
	m.Mem.Restore(cp.snap)
	m.logOneMinusP = cp.logOneMinusP
	switch {
	case m.cfg.TraceRing <= 0:
		m.ring = nil
	case m.ring == nil || len(m.ring.buf) != m.cfg.TraceRing:
		m.ring = &traceRing{buf: make([]TraceEvent, m.cfg.TraceRing)}
	default:
		m.ring.next, m.ring.full = 0, false
	}
	m.obs, m.inj = nil, nil
	m.watchdog, m.strategy = nil, nil
	m.stopped = false
	m.labelPrefix = ""
	m.lineLabels = copyMap(m.lineLabels, cp.lineLabels)
	m.lockLines = copyMap(m.lockLines, cp.lockLines)
}

// copyMap makes dst an independent copy of src, reusing dst's storage; a
// nil src yields nil.
func copyMap[M ~map[K]V, K comparable, V any](dst, src M) M {
	if src == nil {
		return nil
	}
	if dst == nil {
		return maps.Clone(src)
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// Reseed changes the seed that drives the scheduler and per-thread RNG
// streams of subsequent Run calls. The experiment pool derives an
// independent seed per point, so a point's results depend only on its own
// declaration — never on which host worker ran it or in what order.
func (m *Machine) Reseed(seed int64) {
	if m.running {
		panic("tsx: Reseed while the machine is running")
	}
	m.cfg.Seed = seed
}

// Run simulates n hardware threads, each executing body, and returns the
// threads (whose clocks and statistics the caller may inspect). Run may be
// called repeatedly; simulated memory contents persist between calls.
//
// The returned threads belong to the machine: the next Run resets and
// reuses them (and the scheduler procs they embed), so a caller must read
// what it needs from them before running the machine again. A thread whose
// body never started (a stopped run) is nil. Runs on one machine are
// sequential: a body must not start a Run on its own machine.
func (m *Machine) Run(n int, body func(t *Thread)) []*Thread {
	if n <= 0 || n > 64 {
		panic("tsx: Run requires 1..64 threads (line metadata is a 64-bit mask)")
	}
	if m.running {
		panic("tsx: Run while the machine is running")
	}
	if m.procBody == nil {
		m.procBody = m.runThread
		m.grantHook = func(id int, clock, slice uint64) uint64 { return m.inj.Grant(id, clock, slice) }
		m.onGrantHook = func(id int, clock uint64) { m.obs.Grant(id, clock) }
	}
	if len(m.threadStore) < n {
		m.threadStore = make([]Thread, n)
		m.threads = make([]*Thread, n)
	}
	m.threads = m.threads[:n]
	clear(m.threads)
	m.live = 0
	m.running, m.stopped, m.body = true, false, body
	defer func() { m.running, m.body = false, nil }()
	simCfg := sim.Config{Procs: n, Seed: m.cfg.Seed, Quantum: m.cfg.Quantum}
	if m.inj != nil {
		simCfg.Grant = m.grantHook
	}
	if m.obs != nil {
		simCfg.OnGrant = m.onGrantHook
	}
	simCfg.Watchdog = m.watchdog
	simCfg.Strategy = m.strategy
	m.runner.Run(simCfg, n, m.procBody)
	for _, t := range m.threads {
		if t != nil && t.Stopped() {
			m.stopped = true
			break
		}
	}
	return m.threads
}

// runThread is every proc's body: it starts the proc's thread afresh in the
// machine's table and runs the current workload on it.
func (m *Machine) runThread(p *sim.Proc) {
	t := &m.threadStore[p.ID]
	*t = Thread{Proc: p, m: m, bit: 1 << uint(p.ID), jitterState: uint64(m.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(p.ID+1)*0xbf58476d1ce4e5b9}
	if m.cfg.CacheLines > 0 {
		t.cache = newLineCache(m.cfg.CacheLines)
	}
	m.threads[p.ID] = t
	m.body(t)
	if t.tx != nil {
		panic("tsx: thread finished inside a transaction")
	}
	t.flushFreeCache()
}

// RunOne simulates a single thread in simulated time and returns it, for
// timed single-thread runs and probes whose thread clock or statistics
// the caller reads. Code that only builds a machine image uses Fill.
func (m *Machine) RunOne(body func(t *Thread)) *Thread {
	return m.Run(1, body)[0]
}

// Fill runs body as the machine's only thread, outside simulated time, to
// build a machine image (populate a workload, construct locks and
// schemes): Thread.Step charges no cycles and draws no cost jitter, so the
// thread's clock stays at 0. Everything else is what RunOne would do — the
// same loads, stores, allocations and t.Rand() draws, in the same order —
// so the memory words, line metadata, allocator state and line labels
// come out byte-identical to RunOne's. A sole thread without a watchdog
// holds an unbounded grant, so the body never yields either way; only the
// clock and the coherence requests no other thread receives are skipped.
//
// Fill panics if an observer, injector, watchdog or strategy is installed:
// those belong to timed runs.
func (m *Machine) Fill(body func(t *Thread)) {
	if m.obs != nil || m.inj != nil || m.watchdog != nil || m.strategy != nil {
		panic("tsx: Fill with a hook installed")
	}
	m.Run(1, func(t *Thread) {
		t.untimed = true
		body(t)
	})
}

// Thread is one simulated hardware thread with TSX state. It embeds the
// scheduler proc, so Clock, Rand and ID are available directly.
type Thread struct {
	*sim.Proc
	m      *Machine
	tx     *txState
	txPool *txState

	// bit is the thread's line-mask bit, 1<<ID, precomputed: the
	// read/write-set paths consult it on every transactional access.
	bit uint64

	// jitterState drives the per-step cost noise (seeded per thread).
	jitterState uint64

	// untimed marks a Fill's thread: Step charges nothing.
	untimed bool

	// cache approximates the thread's private cache for cost accounting
	// (nil unless Config.CacheLines > 0).
	cache *lineCache

	// freeCache is the thread-local allocator cache (jemalloc-style
	// tcache, matching the paper's allocator). Without it, a global
	// LIFO free list hands a node freed by one thread straight to the
	// next allocating thread, whose zeroing stores then conflict with
	// every transaction that recently traversed that node — a hot-spot
	// real multi-threaded allocators avoid. Allocated on first free:
	// the table's size-class arrays are ~6 KB, which would dominate
	// Thread's footprint for workloads that never free.
	freeCache *mem.FreeTable

	// elisionSuppressed makes the next XACQUIRE execute without elision.
	// Hardware sets this state when an HLE transaction aborts: the
	// acquiring store is re-issued once, non-transactionally.
	elisionSuppressed bool

	// aborting marks an abort unwind in flight: abortNow sets it before
	// panicking, and the recover at the transaction's begin point (RTM or
	// HLE region) acts only while it is set, so a scheduler stop order or
	// a foreign panic unwinds through an open transaction untouched.
	aborting bool

	// serial tracks whether the thread is inside a MarkSerial region (a
	// critical section run under a really-held lock). Pure annotation
	// for the profiling observer; the engine never reads it.
	serial bool

	// sub is the thread's subscription mode (SetSubscription; eager
	// until a scheme's Setup selects lazy).
	sub Subscription

	// spin is the state of the thread's current Spin wait.
	spin spinWait

	// Stats accumulates transaction outcomes for this thread.
	Stats Stats
}

// Stats counts transaction outcomes on one thread, plus the footprint of
// committed transactions (read/write set sizes and access counts) for
// workload characterization.
type Stats struct {
	Begun     uint64
	Committed uint64
	Aborted   [numCauses]uint64

	// Footprint sums over committed transactions.
	CommittedReadLines  uint64
	CommittedWriteLines uint64
	CommittedAccesses   uint64
}

// MeanReadLines returns the mean read-set size of committed transactions.
func (s *Stats) MeanReadLines() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.CommittedReadLines) / float64(s.Committed)
}

// MeanWriteLines returns the mean write-set size of committed transactions.
func (s *Stats) MeanWriteLines() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.CommittedWriteLines) / float64(s.Committed)
}

// MeanAccesses returns the mean access count of committed transactions.
func (s *Stats) MeanAccesses() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.CommittedAccesses) / float64(s.Committed)
}

// TotalAborts sums aborts across causes.
func (s *Stats) TotalAborts() uint64 {
	var n uint64
	for _, a := range s.Aborted {
		n += a
	}
	return n
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Begun += other.Begun
	s.Committed += other.Committed
	for i := range s.Aborted {
		s.Aborted[i] += other.Aborted[i]
	}
	s.CommittedReadLines += other.CommittedReadLines
	s.CommittedWriteLines += other.CommittedWriteLines
	s.CommittedAccesses += other.CommittedAccesses
}

// Machine returns the machine this thread runs on.
func (t *Thread) Machine() *Machine { return t.m }

// Memory returns the machine's simulated memory.
func (t *Thread) Memory() *mem.Memory { return t.m.Mem }

// Step advances the thread's virtual clock by cost cycles plus the
// machine's configured jitter. It shadows sim.Proc.Step so that every
// engine-charged cost carries microarchitectural noise; without noise,
// identical loops on different threads phase-lock into artificial
// conflict-free schedules. Under Fill it does nothing.
func (t *Thread) Step(cost uint64) {
	if t.untimed {
		return
	}
	t.Proc.Step(t.jitter(cost))
}

// tick is Step without the yield (sim.Proc.Tick), for Spin's state machine:
// it reports whether the jittered cost ran the thread's grant out.
func (t *Thread) tick(cost uint64) bool {
	return t.Proc.Tick(t.jitter(cost))
}

// jitter returns cost plus its draw of the machine's configured noise.
func (t *Thread) jitter(cost uint64) uint64 {
	if j := t.m.cfg.CostJitter; j > 0 && cost > 0 {
		span := uint64(float64(cost) * j)
		if span > 0 {
			// A cheap LCG suffices for noise; math/rand on every
			// access would dominate the simulator's own runtime.
			t.jitterState = t.jitterState*6364136223846793005 + 1442695040888963407
			cost += jitterRem(t.jitterState>>33, span)
		}
	}
	return cost
}

// jitterRem returns r % (span+1) for the jitter draw r < 1<<31. Below a
// span of 1<<31 both operands fit in 32 bits, and a 32-bit division is
// cheaper than a 64-bit one on amd64; the value is the same.
func jitterRem(r, span uint64) uint64 {
	if span < 1<<31 {
		return uint64(uint32(r) % uint32(span+1))
	}
	return r % (span + 1)
}

// Work advances the thread's clock by n cycles of pure computation.
func (t *Thread) Work(n uint64) { t.Step(n) }

// drawSpuriousAt samples the access index at which the transaction
// spuriously aborts: a geometric draw with the machine's configured
// per-access probability (whose log(1-p) term is cached), or effectively
// infinity when spurious aborts are disabled.
func (t *Thread) drawSpuriousAt() int {
	if t.m.cfg.SpuriousPerAccess <= 0 {
		return math.MaxInt64 / 2
	}
	if t.m.cfg.SpuriousPerAccess >= 1 {
		return 1
	}
	u := t.Rand().Float64()
	if u <= 0 {
		u = 1e-300
	}
	n := math.Log(u) / t.m.logOneMinusP
	if n >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(n) + 1
}
