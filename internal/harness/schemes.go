package harness

import (
	"reflect"
	"sort"

	"hle/internal/adapt"
	"hle/internal/core"
	"hle/internal/hwext"
	"hle/internal/locks"
	"hle/internal/tsx"
)

// assembler wraps already-constructed locks in a scheme. It performs no
// simulated-memory accesses.
type assembler func(s SchemeSpec, main locks.Lock, aux []locks.Lock) core.Scheme

// schemeEntry declares one scheme: how many MCS auxiliary locks it
// allocates after its main lock (SCM variants need the starvation-free
// lock the paper requires), how it assembles from constructed locks, and
// the machine adjustment it needs (nil: it runs on any machine).
type schemeEntry struct {
	aux      int
	assemble assembler
	machine  func(tsx.Config) tsx.Config
}

// mainOnly adapts a constructor that takes the main lock alone.
func mainOnly[S core.Scheme](mk func(locks.Lock) S) assembler {
	return func(_ SchemeSpec, main locks.Lock, _ []locks.Lock) core.Scheme { return mk(main) }
}

// scmAssembler adapts an SCM constructor over main and one auxiliary lock.
func scmAssembler(mk func(main, aux locks.Lock, cfg core.SCMConfig) *core.RTMScheme, cfg core.SCMConfig) assembler {
	return func(_ SchemeSpec, main locks.Lock, aux []locks.Lock) core.Scheme { return mk(main, aux[0], cfg) }
}

// schemes is the scheme table, keyed by SchemeSpec.Scheme. Every caller
// that constructs a scheme by name — experiment points, the model
// checker, the sharded store, the chaos soaks — reads it through
// SchemeSpec's methods.
var schemes = map[string]schemeEntry{
	"NoLock":   {assemble: func(SchemeSpec, locks.Lock, []locks.Lock) core.Scheme { return core.NewNoLock() }},
	"Standard": {assemble: mainOnly(core.NewStandard)},
	"HLE":      {assemble: mainOnly(core.NewHLE)},
	// The Chapter 7 extension is a hardware property: on a machine without
	// it the scheme is plain HLE.
	"HLE-HWExt": {assemble: mainOnly(hwext.New), machine: hwext.EnableOn},
	"RTM-LE":    {assemble: mainOnly(core.NewRTMLE)},
	// The fixed lazy schemes select lazy subscription per thread in Setup,
	// so they run on any machine.
	"HLE-lazy":    {assemble: mainOnly(core.NewHLELazy)},
	"RTM-LE-lazy": {assemble: mainOnly(core.NewRTMLELazy)},
	// The naive variants are the same scheme code on unsound hardware
	// with both Dice et al. fixes off: the model checker's hazard
	// reproductions, and the ext-lazy sweep's lazy-naive points, which
	// count the updates they lose.
	"HLE-lazy-naive":    {assemble: mainOnly(core.NewHLELazy), machine: hwext.EnableLazyNaive},
	"RTM-LE-lazy-naive": {assemble: mainOnly(core.NewRTMLELazy), machine: hwext.EnableLazyNaive},
	"HLE-SCM":           {aux: 1, assemble: scmAssembler(core.NewHLESCM, core.SCMConfig{})},
	// Algorithm 3 verbatim nests XACQUIRE inside RTM, which Haswell
	// ignores; the ideal variant needs the machine that honours it.
	"HLE-SCM-ideal": {aux: 1, assemble: scmAssembler(core.NewHLESCM, core.SCMConfig{Ideal: true}),
		machine: func(cfg tsx.Config) tsx.Config { cfg.NestHLEInRTM = true; return cfg }},
	"HLE-SCM-multi": {aux: 4, assemble: func(_ SchemeSpec, main locks.Lock, aux []locks.Lock) core.Scheme {
		return core.NewHLESCMMulti(main, aux, core.SCMConfig{})
	}},
	"Pes-SLR": {assemble: mainOnly(core.NewPessimisticSLR)},
	"Opt-SLR": {assemble: func(_ SchemeSpec, main locks.Lock, _ []locks.Lock) core.Scheme {
		return core.NewSLR(main, 0)
	}},
	"Opt-SLR-SCM": {aux: 1, assemble: scmAssembler(core.NewSLRSCM, core.SCMConfig{})},
	"Adaptive": {aux: 1, assemble: func(s SchemeSpec, main locks.Lock, aux []locks.Lock) core.Scheme {
		var acfg core.AdaptiveConfig
		if s.Adapt != nil {
			acfg.Controller = *s.Adapt
		}
		return core.NewAdaptive(main, aux[0], acfg)
	}},
}

// SchemeNames lists every scheme name SchemeSpec accepts, sorted.
func SchemeNames() []string {
	names := make([]string, 0, len(schemes))
	for n := range schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SchemeSpec names a scheme and, where applicable, how to build it.
type SchemeSpec struct {
	// Scheme is one of SchemeNames().
	Scheme string
	// Lock is a locks.MakerByName name: TTAS, MCS, Ticket, AdjTicket,
	// CLH, AdjCLH. Ignored by NoLock.
	Lock string
	// Adapt tunes the Adaptive scheme's controller; nil selects the
	// adapt defaults. Ignored by every other scheme.
	Adapt *adapt.Config
	// Monitor, when non-nil, wraps the scheme's locks (main and
	// auxiliary) with locks.Monitored so their non-speculative
	// transitions feed a waits-for graph — pair it with
	// WatchdogConfig.Monitor for deadlock detection. Wrapping performs
	// no simulated accesses, so it never changes the simulated run.
	Monitor *locks.Monitor
}

// String renders "Scheme/Lock".
func (s SchemeSpec) String() string {
	if s.Scheme == "NoLock" {
		return s.Scheme
	}
	return s.Scheme + " " + s.Lock
}

func (s SchemeSpec) entry() schemeEntry {
	e, ok := schemes[s.Scheme]
	if !ok {
		panic("harness: unknown scheme " + s.Scheme)
	}
	return e
}

// AuxLocks allocates the MCS auxiliary locks the scheme needs, in the
// order Assemble consumes them; nil for schemes without any. Callers
// allocate the main lock first, so every scheme's simulated layout is
// main lock, then auxiliary locks.
func (s SchemeSpec) AuxLocks(t *tsx.Thread) []locks.Lock {
	var aux []locks.Lock
	for range s.entry().aux {
		aux = append(aux, locks.NewMCS(t))
	}
	return aux
}

// Assemble wraps already-constructed locks in the scheme. It performs no
// simulated-memory accesses, so it is safe outside RunOne — in particular
// on locks cloned from a checkpointed image.
func (s SchemeSpec) Assemble(main locks.Lock, aux []locks.Lock) core.Scheme {
	return s.entry().assemble(s, main, aux)
}

// Machine returns cfg adjusted to the hardware the scheme needs (cfg
// itself for schemes that run on any machine).
func (s SchemeSpec) Machine(cfg tsx.Config) tsx.Config {
	if e := s.entry(); e.machine != nil {
		return e.machine(cfg)
	}
	return cfg
}

// RunsOn reports whether cfg already provides the hardware the scheme
// needs, that is whether Machine would leave it unchanged.
func (s SchemeSpec) RunsOn(cfg tsx.Config) bool {
	e := s.entry()
	if e.machine == nil {
		return true
	}
	return reflect.DeepEqual(e.machine(cfg), cfg)
}

// Build constructs the scheme (and its locks) in t's simulated memory:
// the main lock, then AuxLocks, then Assemble. It panics if t's machine
// lacks the hardware Machine would enable, so a scheme never runs
// mislabelled on the wrong machine.
func (s SchemeSpec) Build(t *tsx.Thread) core.Scheme {
	if !s.RunsOn(t.Machine().Config()) {
		panic("harness: scheme " + s.Scheme + " needs a machine configured by SchemeSpec.Machine")
	}
	if s.Scheme == "NoLock" {
		return core.NewNoLock()
	}
	mk := locks.MakerByName(s.Lock)
	if mk == nil {
		panic("harness: unknown lock " + s.Lock)
	}
	main, aux := mk(t), s.AuxLocks(t)
	if s.Monitor != nil {
		main = locks.Monitored(main, s.Monitor)
		for i, a := range aux {
			aux[i] = locks.Monitored(a, s.Monitor)
		}
	}
	return s.Assemble(main, aux)
}
