// Package hle is a faithful, simulator-backed reproduction of
// "Programming with Hardware Lock Elision" (Afek, Levy, Morrison;
// PPoPP 2013): hardware lock elision, its avalanche pathology, and the
// paper's software-assisted conflict management (SCM) and lock removal
// (SLR) schemes, together with HLE-compatible fair locks and the Chapter 7
// hardware extension.
//
// Because Go exposes no TSX intrinsics (and post-2021 Intel parts fuse HLE
// off), the package runs on a deterministic, cycle-approximate simulation
// of a Haswell-like multicore: word-addressable memory with 64-byte cache
// lines, per-line transactional read/write sets, requestor-wins conflict
// management, capacity and spurious aborts, and XACQUIRE/XRELEASE and
// XBEGIN/XEND/XABORT semantics. Everything the paper measures — the
// avalanche effect, SCM's rescue, the fair-lock adjustments — emerges from
// those protocol rules rather than being scripted.
//
// # Quick start
//
// The package example (Example in the package test suite) is this program,
// compiled and checked:
//
//	sys := hle.NewSystem(8, hle.WithSeed(42))
//	var lock hle.Lock
//	var counter hle.Addr
//	var scheme hle.Scheme
//	sys.Init(func(t *hle.Thread) {
//		lock = hle.NewMCSLock(t)
//		counter = t.AllocLines(1)
//		scheme = hle.Elide(lock, hle.WithSCM(hle.NewMCSLock(t)))
//	})
//	sys.Parallel(8, func(t *hle.Thread) {
//		scheme.Setup(t)
//		for i := 0; i < 1000; i++ {
//			scheme.Run(t, func() {
//				t.Store(counter, t.Load(counter)+1)
//			})
//		}
//	})
//
// Critical sections are closures because simulated hardware rollback
// re-executes them; they must touch shared state only through the
// simulated-memory operations on Thread, which are rolled back exactly.
//
// # Options
//
// Every constructor takes functional options from one shared Option
// namespace; each option documents which constructors accept it, and a
// constructor given an option it does not accept panics with a message
// naming the constructors that do — a misconfigured system is a
// programming error, not a runtime condition. The families:
//
//   - machine options (NewSystem): WithSeed, WithMemory, WithPlacement,
//     WithProfiling (abort attribution, see Profile), WithFaultInjection
//     (chaos engines), WithConfig;
//   - scheme options (Elide / Removal / Adaptive): WithSCM,
//     WithSCMTuning, Pessimistic, MaxAttempts, WithAdaptiveTuning,
//     WithSubscription (Elide only);
//   - sharded-store options (Sharded): WithShardHashTable, WithShardHash,
//     WithShardStripes, WithShardLock, WithShardScheme,
//     WithShardSchemeName, and WithPlacement again (one option, two
//     accepting constructors).
//
// So Elide(lock) is plain HLE, Elide(lock, WithSCM(aux)) adds the paper's
// conflict management, Removal(lock, Pessimistic()) is Pes-SLR, and
// NewSystem(8, WithPlacement(Arena)) gives every thread a private
// allocation arena.
//
// A scheme brings its own elision hardware: every thread that runs it
// calls its Setup first, which selects how that thread elides. So
// ElideWithHardwareExtension(lock) runs the Chapter 7 extension and
// Elide(lock, WithSCM(aux), WithSCMTuning(SCMConfig{Ideal: true})) nests
// its elision inside RTM (Algorithm 3 verbatim), both on any System.
package hle

import (
	"fmt"

	"hle/internal/adapt"
	"hle/internal/chaos"
	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// Re-exported fundamental types. A Thread is one simulated hardware
// thread; all simulated memory access goes through it. An Addr is a
// simulated memory address (a 64-bit-word index); Addr 0 is nil.
type (
	// Thread is a simulated hardware thread with TSX state.
	Thread = tsx.Thread
	// Addr is a simulated memory address.
	Addr = mem.Addr
	// Lock is a mutual-exclusion lock in simulated memory with standard
	// and speculative (elidable) paths.
	Lock = locks.Lock
	// Scheme executes critical sections over a lock: plain locking,
	// hardware lock elision, SCM, or lock removal.
	Scheme = core.Scheme
	// Result describes how one critical-section execution completed.
	Result = core.Result
	// OpStats aggregates per-operation statistics.
	OpStats = core.OpStats
	// MachineConfig exposes the full simulated-machine configuration
	// for advanced use.
	MachineConfig = tsx.Config
	// Placement selects where the allocator puts fresh word-granular
	// allocations relative to cache lines (see WithPlacement).
	Placement = mem.Placement
	// MemoryLayout is the full allocator layout configuration —
	// placement policy plus its knobs (color count, chunk size, auto-pad
	// plan) — settable wholesale via
	// WithConfig(func(c *MachineConfig) { c.Layout = ... }).
	MemoryLayout = mem.Layout
)

// The placement policies (see WithPlacement). Packed tightly bump-packs
// objects (the baseline, where small objects share cache lines); Padded
// pads every object to private whole lines; Colored spreads consecutive
// allocations across cache-index colors; Arena gives each allocating
// thread a private arena.
const (
	Packed  = mem.Packed
	Padded  = mem.Padded
	Colored = mem.Colored
	Arena   = mem.Arena
)

// System is a simulated multicore machine with TSX support.
type System struct {
	m *tsx.Machine
}

// target is the bitset of constructors an Option applies to.
type target uint8

const (
	tSystem target = 1 << iota
	tElide
	tRemoval
	tAdaptive
	tSharded
)

// String lists the accepting constructors, for misuse panics.
func (tg target) String() string {
	names := []struct {
		bit  target
		name string
	}{
		{tSystem, "NewSystem"}, {tElide, "Elide"}, {tRemoval, "Removal"},
		{tAdaptive, "Adaptive"}, {tSharded, "Sharded"},
	}
	s := ""
	for _, n := range names {
		if tg&n.bit != 0 {
			if s != "" {
				s += "/"
			}
			s += n.name
		}
	}
	if s == "" {
		return "no constructor"
	}
	return s
}

// Option configures one of the package's constructors. All options share
// this one type, so any option can be passed anywhere the compiler is
// concerned — which constructors actually accept it is part of each
// option's contract, documented on its constructor and enforced at
// construction time: a constructor given an inapplicable option panics
// with a message naming the constructors that do accept it.
type Option struct {
	name    string
	targets target
	sys     func(*tsx.Config)
	hook    func(*tsx.Machine) // installs an engine hook on the built machine
	sch     func(*schemeCfg)
	shd     func(*shardCfg)
}

// SystemOption and ShardOption are the conventional names for options in
// NewSystem and Sharded signatures. They are aliases of Option — the
// namespace is shared; acceptance is checked per constructor.
type (
	SystemOption = Option
	ShardOption  = Option
)

// use validates that the option applies to the invoking constructor.
func (o Option) use(constructor string, bit target) {
	name := o.name
	if name == "" {
		name = "a zero Option value"
	}
	if o.targets&bit == 0 {
		panic(fmt.Sprintf("hle: %s: option %s applies to %s, not %s",
			constructor, name, o.targets, constructor))
	}
}

func sysOption(name string, fn func(*tsx.Config)) Option {
	return Option{name: name, targets: tSystem, sys: fn}
}

func hookOption(name string, fn func(*tsx.Machine)) Option {
	return Option{name: name, targets: tSystem, hook: fn}
}

func schemeOption(name string, targets target, fn func(*schemeCfg)) Option {
	return Option{name: name, targets: targets, sch: fn}
}

// WithSeed fixes the random seed; equal seeds give bit-identical runs.
// Applies to NewSystem.
func WithSeed(seed int64) SystemOption {
	return sysOption("WithSeed", func(c *tsx.Config) { c.Seed = seed })
}

// WithMemory sets the initial simulated memory size in 64-bit words.
// Applies to NewSystem.
func WithMemory(words int) SystemOption {
	return sysOption("WithMemory", func(c *tsx.Config) { c.MemWords = words })
}

// WithPlacement selects the allocator's placement policy — where fresh
// Thread.Alloc blocks land relative to cache lines (Packed, Padded,
// Colored, Arena). Placement decides which objects share lines, and
// therefore which logically-independent critical sections conflict under
// elision. Applies to NewSystem (machine-wide, carried by checkpoints so
// forked images keep the policy) and to Sharded (a construction-time
// bracket: the store's structures are laid out under the policy, which is
// then restored, so one store can be laid out differently than the rest
// of the machine).
func WithPlacement(p Placement) Option {
	if !p.Valid() {
		panic(fmt.Sprintf("hle: WithPlacement: unknown placement %d", uint8(p)))
	}
	return Option{
		name:    "WithPlacement",
		targets: tSystem | tSharded,
		sys:     func(c *tsx.Config) { c.Layout.Placement = p },
		shd:     func(c *shardCfg) { c.placement, c.placementSet = p, true },
	}
}

// WithConfig applies fn to the underlying machine configuration. Applies
// to NewSystem.
func WithConfig(fn func(*MachineConfig)) SystemOption {
	return sysOption("WithConfig", func(c *tsx.Config) { fn(c) })
}

// WithProfiling attaches an abort-attribution profiler to the system:
// every transactional abort is classified (conflict on the lock line vs a
// data line, capacity, spurious, injected, ...) with the aggressing
// thread and conflicting cache line identified, occupancy is sampled into
// a waterfall time series, and attempt latencies are bucketed by outcome.
// Read the results with System.Profile. Observation is passive and the
// collector only runs at transaction boundaries, so the simulated
// schedule is byte-identical with profiling on or off. Applies to
// NewSystem.
func WithProfiling(opt ProfileOptions) SystemOption {
	return hookOption("WithProfiling", func(m *tsx.Machine) { obs.Attach(m, opt) })
}

// WithFaultInjection installs a fault injector — typically a chaos
// Engine — consulted by the simulator's hot paths. See NewChaosEngine.
// Applies to NewSystem.
func WithFaultInjection(inj Injector) SystemOption {
	return hookOption("WithFaultInjection", func(m *tsx.Machine) { m.SetInjector(inj) })
}

// NewSystem creates a simulated machine with the given number of hardware
// threads (the paper's testbed exposes 8).
func NewSystem(threads int, opts ...SystemOption) *System {
	cfg := tsx.DefaultConfig(threads)
	for _, o := range opts {
		o.use("NewSystem", tSystem)
		if o.sys != nil {
			o.sys(&cfg)
		}
	}
	m := tsx.NewMachine(cfg)
	for _, o := range opts {
		if o.hook != nil {
			o.hook(m)
		}
	}
	return &System{m: m}
}

// Machine exposes the underlying simulated machine.
func (s *System) Machine() *tsx.Machine { return s.m }

// Profile returns the profiling results accumulated so far, or nil when
// the system was built without WithProfiling. It may be called between
// phases — collection keeps going — and its output is deterministic:
// equal seeds produce byte-identical Profile.JSON.
func (s *System) Profile() *Profile {
	if col, ok := s.m.Observer().(*obs.Collector); ok {
		return col.Profile()
	}
	return nil
}

// Init runs f on a single simulated thread, for allocating and populating
// data structures before a parallel phase.
func (s *System) Init(f func(t *Thread)) {
	s.m.RunOne(f)
}

// Parallel simulates n hardware threads running body and returns them
// (each thread's Clock and Stats are inspectable afterwards, until the
// system's next Init or Parallel, which reuses them). Memory contents
// persist across calls.
func (s *System) Parallel(n int, body func(t *Thread)) []*Thread {
	return s.m.Run(n, body)
}

// Lock constructors (Chapter 3 and Chapter 6 algorithms).
var (
	// NewTTASLock is the test-and-test-and-set spinlock (Algorithm 1).
	NewTTASLock = func(t *Thread) Lock { return locks.NewTTAS(t) }
	// NewMCSLock is the MCS queue lock (Algorithm 2), the fair lock
	// that is HLE-compatible as-is.
	NewMCSLock = func(t *Thread) Lock { return locks.NewMCS(t) }
	// NewTicketLock is the classic ticket lock (Algorithm 4); it cannot
	// be elided (its speculative path falls back to standard locking).
	NewTicketLock = func(t *Thread) Lock { return locks.NewTicket(t) }
	// NewAdjustedTicketLock is the paper's HLE-compatible ticket lock
	// (Algorithm 5).
	NewAdjustedTicketLock = func(t *Thread) Lock { return locks.NewAdjustedTicket(t) }
	// NewCLHLock is the CLH queue lock (Algorithm 6); not elidable.
	NewCLHLock = func(t *Thread) Lock { return locks.NewCLH(t) }
	// NewAdjustedCLHLock is the paper's HLE-compatible CLH lock
	// (Algorithm 7).
	NewAdjustedCLHLock = func(t *Thread) Lock { return locks.NewAdjustedCLH(t) }
)

// Standard wraps lock in plain, non-speculative locking.
func Standard(lock Lock) Scheme { return core.NewStandard(lock) }

// SCMConfig tunes software-assisted conflict management.
type SCMConfig = core.SCMConfig

// schemeCfg accumulates scheme-constructor options.
type schemeCfg struct {
	aux         Lock
	scm         SCMConfig
	scmTuned    bool
	pessimistic bool
	maxAttempts int
	adapt       AdaptiveConfig
	adaptTuned  bool
	sub         Subscription
}

// Subscription selects when an eliding transaction enters the elided lock
// word into its read set (see WithSubscription).
type Subscription = tsx.Subscription

// The subscription modes. Eager is real Haswell HLE: the XACQUIRE read of
// the lock word joins the read set immediately, so a pessimistic
// acquisition anywhere in the transaction's lifetime aborts it. Lazy
// defers that subscription to commit time, keeping the lock line out of
// the transaction's footprint while it runs.
const (
	Eager = tsx.SubEager
	Lazy  = tsx.SubLazy
)

// WithSCM adds software-assisted conflict management (Algorithm 3):
// aborted threads serialize on aux — which the paper requires to be
// starvation-free, e.g. an MCS lock — and rejoin the speculative run, so
// non-conflicting threads keep speculating. Applies to Elide, Removal,
// and Adaptive (where it supplies the SCM rung's auxiliary lock).
func WithSCM(aux Lock) Option {
	return schemeOption("WithSCM", tElide|tRemoval|tAdaptive,
		func(c *schemeCfg) { c.aux = aux })
}

// WithSCMTuning sets explicit SCM tuning (retry budget etc.). Applies to
// Elide, Removal, and Adaptive; requires WithSCM. Only Elide honours
// SCMConfig.Ideal; Removal and Adaptive panic on it.
func WithSCMTuning(cfg SCMConfig) Option {
	return schemeOption("WithSCMTuning", tElide|tRemoval|tAdaptive,
		func(c *schemeCfg) { c.scm, c.scmTuned = cfg, true })
}

// Pessimistic makes Removal give up speculation after a single failed
// attempt (the paper's Pes-SLR variant). Applies to Removal only.
func Pessimistic() Option {
	return schemeOption("Pessimistic", tRemoval,
		func(c *schemeCfg) { c.pessimistic = true })
}

// MaxAttempts bounds Removal's speculative retries before it falls back
// to the lock (0 selects the paper's 10, §5.1). Applies to Removal only.
func MaxAttempts(n int) Option {
	return schemeOption("MaxAttempts", tRemoval,
		func(c *schemeCfg) { c.maxAttempts = n })
}

// WithSubscription selects the elided lock word's subscription mode.
// The default, Eager, is real Haswell behavior. Lazy defers the lock
// subscription to commit time — the lock line stays out of the read set
// while the critical section runs, so a brief pessimistic acquisition
// that releases before the transaction commits no longer aborts it.
//
// Naive lazy subscription is famously unsafe (Dice, Harris, Kogan, Lev,
// Marathe: a transaction can observe a pessimistic holder's partial
// writes and still commit, or drain its write set over the holder's).
// This implementation is the fixed pipeline: at commit the lock word is
// subscribed and validated BEFORE the write set drains, and a
// pessimistic acquisition landing inside the commit window aborts the
// transaction. internal/explore model-checks both properties. This option
// never selects the naive pipeline: only the internal naive-lazy schemes
// run it, for the model checker's hazard reproductions and the ext-lazy
// sweep's lost-update counts.
//
// Applies to Elide (without WithSCM: SCM's auxiliary-lock protocol
// subscribes eagerly by construction).
func WithSubscription(s Subscription) Option {
	if s != Eager && s != Lazy {
		panic(fmt.Sprintf("hle: WithSubscription: unknown subscription mode %d", uint8(s)))
	}
	return schemeOption("WithSubscription", tElide,
		func(c *schemeCfg) { c.sub = s })
}

// WithAdaptiveTuning sets explicit controller thresholds (windows,
// hysteresis bands, probation backoff). Applies to Adaptive only; zero
// fields keep the adapt defaults.
func WithAdaptiveTuning(cfg AdaptiveConfig) Option {
	return schemeOption("WithAdaptiveTuning", tAdaptive,
		func(c *schemeCfg) { c.adapt, c.adaptTuned = cfg, true })
}

// applyOptions folds opts for the named scheme constructor, panicking on
// options that do not apply to it and on contradictory combinations.
func applyOptions(constructor string, bit target, opts []Option) schemeCfg {
	var c schemeCfg
	for _, o := range opts {
		o.use(constructor, bit)
		o.sch(&c)
	}
	if c.scmTuned && c.aux == nil {
		panic("hle: " + constructor + ": WithSCMTuning requires WithSCM")
	}
	return c
}

// Elide wraps lock in Haswell-style hardware lock elision (Figure 1.1),
// subject to the Chapter 3 avalanche effect under conflicts. WithSCM adds
// the paper's software-assisted conflict management; WithSCMTuning sets
// its knobs; WithSubscription(Lazy) defers the lock-word subscription to
// commit time (fixed lazy-subscription pipeline).
func Elide(lock Lock, opts ...Option) Scheme {
	c := applyOptions("Elide", tElide, opts)
	if c.sub == Lazy {
		if c.aux != nil {
			panic("hle: Elide: WithSubscription(Lazy) excludes WithSCM (the SCM protocol subscribes eagerly by construction)")
		}
		return core.NewHLELazy(lock)
	}
	if c.aux != nil {
		return core.NewHLESCM(lock, c.aux, c.scm)
	}
	return core.NewHLE(lock)
}

// Removal wraps lock in software lock removal (Chapter 5): the critical
// section runs transactionally without reading the lock until commit
// time. By default it is optimistic, retrying up to MaxAttempts times
// (the paper's 10) before falling back to the lock; Pessimistic gives up
// after one failure; WithSCM serializes aborted threads on an auxiliary
// lock instead.
func Removal(lock Lock, opts ...Option) Scheme {
	c := applyOptions("Removal", tRemoval, opts)
	if c.aux != nil {
		if c.pessimistic || c.maxAttempts != 0 {
			panic("hle: Removal: WithSCM excludes Pessimistic/MaxAttempts")
		}
		if c.scm.Ideal {
			panic("hle: Removal: SCMConfig.Ideal is honoured only by Elide")
		}
		return core.NewSLRSCM(lock, c.aux, c.scm)
	}
	if c.pessimistic {
		if c.maxAttempts > 1 {
			panic("hle: Removal: Pessimistic contradicts MaxAttempts > 1")
		}
		return core.NewPessimisticSLR(lock)
	}
	return core.NewSLR(lock, c.maxAttempts)
}

// Adaptive re-exports (internal/adapt).
type (
	// AdaptiveConfig tunes the adaptive controller: window size,
	// demotion/promotion thresholds, hysteresis streaks, dwell minimum,
	// and the capped exponential probation backoff. The zero value
	// selects the adapt package defaults.
	AdaptiveConfig = adapt.Config
	// AdaptiveLevel is an execution level of the adaptive scheme:
	// LevelElide, LevelSCM, or LevelSerial.
	AdaptiveLevel = adapt.Level
	// AdaptiveTransition is one controller decision with its hot-swap
	// timing (when the switch applied, when in-flight sections drained).
	AdaptiveTransition = adapt.Transition
)

// The adaptive scheme's execution levels, most to least speculative.
const (
	LevelElide  = adapt.Elide
	LevelSCM    = adapt.SCM
	LevelSerial = adapt.Serial
)

// AdaptiveScheme is the extended interface Adaptive returns: a Scheme
// whose execution level is controller-chosen per lock at runtime, with
// the decision log exposed.
type AdaptiveScheme interface {
	Scheme
	// Level returns the level new critical sections currently adopt.
	Level() AdaptiveLevel
	// Transitions returns the controller's decision log so far.
	Transitions() []AdaptiveTransition
}

// Adaptive wraps lock in the runtime scheme controller: critical sections
// run at full elision while it is profitable, degrade to software-assisted
// conflict management when abort pressure or a collapsing speculative
// fraction signals the Chapter 3 avalanche, fall to a pessimistic
// serializing floor when even SCM cannot help (capacity-dominated abort
// mixes go there directly), and climb back with hysteresis once the storm
// passes. WithSCM supplies the auxiliary lock for the SCM rung (required;
// the paper wants it starvation-free, e.g. an MCS lock), WithSCMTuning its
// retry budget, and WithAdaptiveTuning the controller thresholds. Level
// switches hot-swap: in-flight critical sections finish under the level
// they started with while new arrivals use the new level.
func Adaptive(lock Lock, opts ...Option) AdaptiveScheme {
	c := applyOptions("Adaptive", tAdaptive, opts)
	if c.aux == nil {
		panic("hle: Adaptive: requires WithSCM(aux) for its conflict-management rung")
	}
	if c.scm.Ideal {
		panic("hle: Adaptive: SCMConfig.Ideal is honoured only by Elide")
	}
	return core.NewAdaptive(lock, c.aux, core.AdaptiveConfig{Controller: c.adapt, SCM: c.scm})
}

// ElideWithHardwareExtension is plain HLE on the paper's Chapter 7
// hardware extension, whose conflict detection distinguishes the lock
// line from data lines: a lock-line conflict suspends a speculative
// thread on its next cache miss instead of aborting it. The extension is
// selected per thread by the scheme's Setup, so it runs on any System.
func ElideWithHardwareExtension(lock Lock) Scheme {
	return core.NewHLEHWExt(lock)
}

// Profiling re-exports (internal/obs).
type (
	// Profile is a profiling result: abort attribution, conflict
	// heatmap, occupancy waterfall, and latency histograms. Render it
	// with Profile.Text or Profile.JSON.
	Profile = obs.Profile
	// ProfileOptions configures WithProfiling (sampling window, heatmap
	// bound). The zero value selects sensible defaults.
	ProfileOptions = obs.Options
)

// Fault-injection and liveness re-exports (internal/chaos and the
// harness watchdog), so adversarial testing is reachable from the public
// surface.
type (
	// Injector is the fault-injection interface the simulator consults
	// when one is installed (WithFaultInjection).
	Injector = tsx.Injector
	// Fault is one scheduled fault of a chaos engine.
	Fault = chaos.Fault
	// FaultKind enumerates the injectable fault kinds (abort storms,
	// capacity squeezes, stalls, grant skew).
	FaultKind = chaos.Kind
	// FaultCounters tallies the faults a chaos engine delivered.
	FaultCounters = chaos.Counters
	// ChaosEngine is a deterministic fault injector driven by a schedule.
	ChaosEngine = chaos.Engine
	// WatchdogConfig arms liveness detection (livelock, starvation,
	// deadlock) on a measurement run.
	WatchdogConfig = harness.WatchdogConfig
	// Watchdog is a liveness monitor built from a WatchdogConfig.
	Watchdog = harness.Watchdog
	// Failure is a watchdog diagnostic: which liveness property broke,
	// where every thread was, and a crash dump of recent events.
	Failure = harness.Failure
)

// NewChaosEngine builds a deterministic fault injector from a schedule;
// install it with WithFaultInjection or Machine().SetInjector.
func NewChaosEngine(faults ...Fault) *ChaosEngine { return chaos.New(faults...) }

// RandomFaultSchedule draws n faults spread over horizon virtual cycles
// across procs threads; equal seeds give equal schedules.
func RandomFaultSchedule(seed int64, procs int, horizon uint64, n int) []Fault {
	return chaos.RandomSchedule(seed, procs, horizon, n)
}

// NewWatchdog builds a liveness monitor for n threads; wire its Check
// into the machine with Machine().SetWatchdog.
func NewWatchdog(cfg WatchdogConfig, n int) *Watchdog {
	return harness.NewWatchdog(cfg, n)
}
