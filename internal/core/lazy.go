package core

import (
	"hle/internal/locks"
	"hle/internal/tsx"
)

// HLELazy is hardware lock elision with lazy lock subscription: the
// XACQUIRE does not put the lock line in the read set; the engine's
// commit pipeline subscribes and validates it instead (with the Dice et
// al. fixes on — see internal/tsx/lazy.go). A speculating thread is
// therefore invisible to pessimistic acquirers for its whole body, which
// removes the lock-line conflict aborts that seed the Chapter 3
// avalanche.
type HLELazy struct {
	HLE
}

// NewHLELazy wraps lock in lazily-subscribing hardware lock elision.
func NewHLELazy(lock locks.Lock) *HLELazy {
	return &HLELazy{HLE{lock: lock}}
}

// Name implements Scheme.
func (s *HLELazy) Name() string { return "HLE-lazy" }

// Setup implements Scheme.
func (s *HLELazy) Setup(t *tsx.Thread) {
	t.SetSubscription(tsx.SubLazy)
	s.lock.Prepare(t)
}
