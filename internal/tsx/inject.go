package tsx

import "hle/internal/mem"

// Injector is the fault-injection interface consulted by the engine's hot
// paths when one is installed (Machine.SetInjector). The chaos engine in
// internal/chaos implements it; tests may supply their own.
//
// Implementations MUST be deterministic: every decision must be a pure
// function of the arguments plus the injector's own explicit state. They
// must not consult host time or host randomness, and they must not touch
// simulated memory — simulated execution is token-serialized, so calls
// arrive one at a time, but a decision that depended on anything outside
// the virtual machine would break seed-reproducibility.
type Injector interface {
	// Access is consulted once per simulated memory access, before the
	// access touches any shared line state. line is the cache-line index,
	// write reports whether the access issues an RFO, and inTx whether
	// the thread is executing transactionally. A non-zero stall advances
	// the thread's clock by exactly that many cycles (lock-holder
	// preemption, NIC interrupts, ...); abort=true additionally aborts
	// the current transaction as a spurious abort (ignored outside a
	// transaction).
	Access(threadID int, clock uint64, line int, write, inTx bool) (stall uint64, abort bool)

	// WriteCap may lower the effective write-set capacity for the access
	// about to be checked (a transient L1 squeeze, e.g. from a sibling
	// hyperthread). It receives the configured limit and returns the
	// limit to enforce; returning limit unchanged injects nothing.
	WriteCap(threadID int, clock uint64, limit int) int

	// Grant may skew the scheduler's randomized grant slice (see
	// sim.Config.Grant). Returning slice unchanged injects nothing.
	Grant(procID int, clock, slice uint64) uint64
}

// SetInjector installs (or with nil removes) a fault injector for subsequent
// Run calls. With no injector installed the engine's behavior and output are
// byte-identical to a build without injection hooks. Checkpoints and clones
// do not carry the injector: a forked machine starts fault-free.
func (m *Machine) SetInjector(inj Injector) {
	if m.running {
		panic("tsx: SetInjector while the machine is running")
	}
	m.inj = inj
}

// SetWatchdog installs (or with nil removes) a liveness watchdog consulted
// by the scheduler before every grant with the minimum virtual clock in the
// machine (see sim.Config.Watchdog). When the watchdog returns true the run
// stops: every unfinished thread unwinds, Run returns normally, and
// Machine.Stopped reports true. A stopped machine's simulated state is torn
// (open transactions, un-flushed allocator caches) and is only good for
// diagnostics — discard it after reading the trace ring and thread state.
func (m *Machine) SetWatchdog(wd func(minClock uint64) bool) {
	if m.running {
		panic("tsx: SetWatchdog while the machine is running")
	}
	m.watchdog = wd
}

// Stopped reports whether the previous Run was stopped by the watchdog.
func (m *Machine) Stopped() bool { return m.stopped }

// inject consults the installed injector for an access to line. It runs
// before the access touches shared line state, so an injected stall (which
// may yield the scheduler token) is equivalent to the access simply issuing
// later, and an injected abort unwinds before the access registers anywhere.
func (t *Thread) inject(line int, write bool) {
	inj := t.m.inj
	if inj == nil {
		return
	}
	stall, abort := inj.Access(t.ID, t.Clock(), line, write, t.tx != nil)
	if stall > 0 {
		t.trace(EvInjStall, mem.LineAddr(line), stall)
		// Raw Proc.Step, not Thread.Step: injected delays are exact,
		// not subject to cost jitter.
		t.Proc.Step(stall)
	}
	if abort && t.tx != nil {
		t.trace(EvInjAbort, mem.LineAddr(line), 0)
		// The program observes an injected abort as spurious (same Cause,
		// same Status); the flag lets profiles attribute it separately.
		t.tx.injected = true
		t.abortNow(CauseSpurious, 0)
	}
}
