package core

import (
	"hle/internal/locks"
	"hle/internal/tsx"
)

// NewHLELazy wraps lock in hardware lock elision with lazy lock
// subscription: the XACQUIRE does not put the lock line in the read set;
// the engine's commit pipeline subscribes and validates it instead (with
// the Dice et al. fixes on — see internal/tsx/lazy.go). A speculating
// thread is therefore invisible to pessimistic acquirers for its whole
// body, which removes the lock-line conflict aborts that seed the Chapter
// 3 avalanche.
func NewHLELazy(lock locks.Lock) *HLE {
	return &HLE{lock: lock, name: "HLE-lazy", sub: tsx.SubLazy}
}

// NewHLELazyNaive is NewHLELazy on the naive commit pipeline
// (tsx.SubLazyNaive, both Dice et al. fixes off): unsafe by construction.
// It keeps HLE-lazy's name, so its profiles read as the scheme it breaks.
// The model checker reproduces the hazard counterexamples with it, and
// the ext-lazy sweep counts the updates it loses; never use it where a
// lost update counts as a failure.
func NewHLELazyNaive(lock locks.Lock) *HLE {
	return &HLE{lock: lock, name: "HLE-lazy", sub: tsx.SubLazyNaive}
}
