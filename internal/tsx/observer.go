package tsx

import "hle/internal/mem"

// Observer receives enriched engine events for profiling (internal/obs).
// Unlike the flight-recorder ring — bounded, byte-compact, meant for crash
// dumps — an observer sees every transaction outcome with full attribution:
// the abort cause, the conflicting cache line, and the aggressing thread
// whose coherence request doomed the victim under requestor wins.
//
// Implementations MUST be deterministic and passive: calls arrive
// token-serialized (one simulated thread runs at a time), must not touch
// simulated memory, and must not consult host time or host randomness.
// With no observer installed the engine performs one nil check per
// transaction boundary and none per memory access, so disabled-profiling
// runs stay allocation-free and byte-identical to an unhooked build.
type Observer interface {
	// BindMachine is called once, when the observer is installed on a
	// machine (SetObserver). The observer may keep the machine to resolve
	// line labels at export time.
	BindMachine(m *Machine)

	// TxBegin reports a transaction starting on thread at clock.
	TxBegin(thread int, clock uint64)

	// TxCommit reports a successful commit. begin is the clock at the
	// matching TxBegin; accesses is the transaction's access count.
	TxCommit(thread int, clock, begin uint64, accesses int)

	// TxAbort reports an abort. line is the conflicting cache-line index
	// and aggressor the requesting thread's ID (-1 when external or
	// unknown); both are meaningful only when cause is CauseConflict.
	// injected marks aborts forced by a fault injector (delivered to the
	// program as spurious); elided marks HLE transactions.
	TxAbort(thread int, clock, begin uint64, cause Cause, line, aggressor int, injected, elided bool)

	// Serial reports thread entering (on=true) or leaving (on=false) a
	// serialized critical section — one executed under a really-acquired
	// lock rather than speculatively (see Thread.MarkSerial).
	Serial(thread int, clock uint64, on bool)

	// Grant reports a scheduler grant to proc at clock, the machine's
	// minimum virtual time (see sim.Config.OnGrant).
	Grant(proc int, clock uint64)
}

// SetObserver installs (or with nil removes) an event observer for
// subsequent Run calls. With no observer installed the engine's behavior
// and output are byte-identical to a hook-free build. Checkpoints and
// clones do not carry the observer: profiling collectors are
// per-experiment, and a shared collector would race under the
// host-parallel pool.
func (m *Machine) SetObserver(o Observer) {
	if m.running {
		panic("tsx: SetObserver while the machine is running")
	}
	m.obs = o
	if o != nil {
		o.BindMachine(m)
	}
}

// Observer returns the installed observer, if any.
func (m *Machine) Observer() Observer { return m.obs }

// MarkSerial tags the thread as executing (or, with on=false, done
// executing) a serialized critical section: one run under a really-held
// lock instead of speculatively. Scheme implementations bracket their
// non-speculative paths with it so profiles can chart speculating vs
// serialized occupancy over virtual time — the avalanche as a waterfall.
// It is a pure annotation: no simulated cost, no effect without an
// observer.
func (t *Thread) MarkSerial(on bool) {
	if t.serial == on {
		return
	}
	t.serial = on
	if o := t.m.obs; o != nil {
		o.Serial(t.ID, t.Clock(), on)
	}
}

// LabelLines attaches a symbolic label to the cache lines covering words
// [a, a+n): profile heatmaps then print "mcs-tail" instead of a raw line
// index. Labels are registered at allocation time by lock constructors and
// data structures; they cost nothing simulated (no accesses, no cycles)
// and are part of the checkpoint image, so forks carry them.
func (t *Thread) LabelLines(a mem.Addr, n int, label string) {
	t.m.labelLines(a, n, label, false)
}

// LabelLockLines is LabelLines for lock words: the lines are additionally
// marked as lock infrastructure, so profiles can split conflict aborts
// into conflict-on-lock-line vs conflict-on-data-line — the distinction
// the Chapter 7 hardware extension exploits.
func (t *Thread) LabelLockLines(a mem.Addr, n int, label string) {
	t.m.labelLines(a, n, label, true)
}

// SetLabelPrefix sets a prefix prepended to every label subsequently
// registered through LabelLines/LabelLockLines, returning the previous
// prefix so callers can restore it. Construction code that instantiates
// one structure several times (the sharded store's per-shard locks and
// trees) brackets each instance's construction with a distinct prefix, so
// heatmaps attribute hot lines to the instance ("s03/mcs-tail") rather
// than only the algorithm. The prefix is construction-time state, not
// part of the machine image: checkpoints and clones copy the registered
// labels, which are already prefixed.
func (m *Machine) SetLabelPrefix(prefix string) (prev string) {
	prev = m.labelPrefix
	m.labelPrefix = prefix
	return prev
}

func (m *Machine) labelLines(a mem.Addr, n int, label string, lock bool) {
	if n < 1 {
		n = 1
	}
	if m.labelPrefix != "" {
		label = m.labelPrefix + label
	}
	first := mem.LineOf(a)
	last := mem.LineOf(a + mem.Addr(n-1))
	for line := first; line <= last; line++ {
		if m.lineLabels == nil {
			m.lineLabels = make(map[int]string)
		}
		m.lineLabels[line] = label
		if lock {
			if m.lockLines == nil {
				m.lockLines = make(map[int]struct{})
			}
			m.lockLines[line] = struct{}{}
		}
	}
}

// LineLabel returns the symbolic label registered for a cache line, or "".
func (m *Machine) LineLabel(line int) string { return m.lineLabels[line] }

// IsLockLine reports whether the line was registered as lock infrastructure
// (LabelLockLines).
func (m *Machine) IsLockLine(line int) bool {
	_, ok := m.lockLines[line]
	return ok
}
