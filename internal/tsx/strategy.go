package tsx

import "hle/internal/sim"

// SetStrategy installs (or with nil removes) a scheduling strategy for
// subsequent Run calls (see sim.Strategy). A strategy replaces the
// scheduler's default randomized min-clock policy entirely: the model
// checker in internal/explore installs one to force exact interleavings
// and to branch at every grant. In strategy mode the machine's watchdog
// and the injector's Grant hook are not consulted — the strategy controls
// every grant and may stop the run itself. Like injectors and observers,
// a strategy is per-experiment state: forks and Reset start without it.
func (m *Machine) SetStrategy(st sim.Strategy) {
	if m.running {
		panic("tsx: SetStrategy while the machine is running")
	}
	m.strategy = st
}

// MixTxState folds the thread's in-flight transaction state — the machine
// state invisible in simulated memory and line metadata — into mix: the
// write buffer's pending values, the HLE elision illusion, doom and
// progress counters. State fingerprints (internal/explore) need it: two
// machine states that agree on memory but differ in a write buffer diverge
// later, when the buffer publishes at commit. Outside a transaction it
// mixes a single zero. The callback form keeps the write buffer's
// internals (and their iteration-order concerns) out of the public API:
// entries are mixed in the deterministic order the transaction first wrote
// them.
//
// The elision fields are the thread's last elision, not necessarily this
// transaction's: txState.reset keeps elidedOld/elidedVal from one
// transaction to the next within a Run (a new Run starts them at zero),
// and they are hashed as they are, so two states that differ only in a
// stale elision count as distinct. Clearing them per transaction changes
// the fingerprint, and with it possibly explore's state counts and the
// pinned benchmark digests; such a change must re-check those pins.
func (t *Thread) MixTxState(mix func(uint64)) {
	tx := t.tx
	if tx == nil {
		mix(0)
		return
	}
	mix(1)
	mix(uint64(tx.accesses))
	var flags uint64
	if tx.doomed {
		flags |= 1
	}
	if tx.elided {
		flags |= 2
	}
	if tx.hleOuter {
		flags |= 4
	}
	if tx.lazyCheck != nil {
		flags |= 8
	}
	mix(flags)
	mix(uint64(tx.abortCause))
	mix(uint64(tx.elidedAddr))
	mix(tx.elidedOld)
	mix(tx.elidedVal)
	mix(uint64(tx.nest))
	mix(uint64(len(tx.readLines)))
	mix(uint64(len(tx.writeLines)))
	mix(uint64(len(tx.allocs)))
	mix(uint64(len(tx.frees)))
	for _, a := range tx.writeOrder {
		v, _ := tx.writeBuf.get(a)
		mix(uint64(a))
		mix(v)
	}
}
