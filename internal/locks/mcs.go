package locks

import (
	"hle/internal/mem"
	"hle/internal/tsx"
)

// MCS is the queue lock of Algorithm 2. Each thread owns a queue node
// (locked flag + next pointer); an arriving thread swaps its node into the
// tail and spins on its own flag. MCS releases restore nothing about the
// tail word when the queue is empty — but the release CAS(tail, myNode,
// NULL) does restore the pre-acquire state in a solo run, which makes MCS
// the one classic fair lock that is HLE-compatible as-is. The paper uses it
// as the representative fair lock.
type MCS struct {
	tail  mem.Addr
	nodes [MaxThreads]mem.Addr // per-thread queue nodes: [locked, next]
}

const (
	mcsLocked = 0 // word offset of the locked flag
	mcsNext   = 1 // word offset of the next pointer
)

// NewMCS allocates an MCS lock with a tail word on its own cache line.
func NewMCS(t *tsx.Thread) *MCS {
	l := &MCS{tail: t.AllocLines(1)}
	t.LabelLockLines(l.tail, 1, "mcs-tail")
	return l
}

// Name implements Lock.
func (l *MCS) Name() string { return "MCS" }

// Fair implements Lock; MCS is FIFO.
func (l *MCS) Fair() bool { return true }

// Addr returns the tail word's simulated address (tests use this).
func (l *MCS) Addr() mem.Addr { return l.tail }

// Prepare allocates thread t's queue node. Must run outside a transaction.
func (l *MCS) Prepare(t *tsx.Thread) {
	if l.nodes[t.ID] == mem.Nil {
		l.nodes[t.ID] = t.AllocLines(2)
		t.LabelLockLines(l.nodes[t.ID], 2, "mcs-node")
	}
}

func (l *MCS) node(t *tsx.Thread) mem.Addr {
	n := l.nodes[t.ID]
	if n == mem.Nil {
		panic("locks: MCS used before Prepare")
	}
	return n
}

// Acquire enqueues the thread's node and spins until its predecessor hands
// the lock over.
func (l *MCS) Acquire(t *tsx.Thread) {
	n := l.node(t)
	t.Store(n+mcsLocked, 1)
	t.Store(n+mcsNext, 0)
	pred := mem.Addr(t.Swap(l.tail, uint64(n)))
	if pred != mem.Nil {
		t.Store(pred+mcsNext, uint64(n))
		t.SpinWhile(n+mcsLocked, 1)
	}
}

// TryAcquire enqueues and waits (the re-issued swap joins the queue).
func (l *MCS) TryAcquire(t *tsx.Thread) bool {
	l.Acquire(t)
	return true
}

// Release hands the lock to the successor, or empties the queue.
func (l *MCS) Release(t *tsx.Thread) {
	n := l.node(t)
	if t.Load(n+mcsNext) == 0 {
		if t.CAS(l.tail, uint64(n), 0) {
			return
		}
		t.SpinWhile(n+mcsNext, 0)
	}
	t.Store(mem.Addr(t.Load(n+mcsNext))+mcsLocked, 0)
}

// SpecAcquire is Algorithm 2's lock path with an XACQUIRE-prefixed swap.
// Under elision the swap returns the real tail: NULL lets the elided
// critical section proceed; a non-NULL predecessor dooms the speculation
// (the elided enqueue is invisible, so the flag will never clear — the
// spin's PAUSE aborts, as Chapter 3 explains).
func (l *MCS) SpecAcquire(t *tsx.Thread) {
	n := l.node(t)
	t.Store(n+mcsLocked, 1)
	t.Store(n+mcsNext, 0)
	pred := mem.Addr(t.XAcquireSwap(l.tail, uint64(n)))
	if pred != mem.Nil {
		t.Store(pred+mcsNext, uint64(n))
		t.SpinWhile(n+mcsLocked, 1)
	}
}

// SpecRelease is Algorithm 2's unlock with an XRELEASE-prefixed CAS: in an
// elided solo view the queue appears empty, the CAS restores NULL and the
// transaction commits. On the standard path it is a plain MCS release.
func (l *MCS) SpecRelease(t *tsx.Thread) {
	n := l.node(t)
	if t.Load(n+mcsNext) == 0 {
		if t.XReleaseCAS(l.tail, uint64(n), 0) {
			return
		}
		t.SpinWhile(n+mcsNext, 0)
	}
	t.Store(mem.Addr(t.Load(n+mcsNext))+mcsLocked, 0)
}

// Held implements Lock: the queue is non-empty.
func (l *MCS) Held(t *tsx.Thread) bool {
	return t.Load(l.tail) != 0
}

func (l *MCS) heldWord() (mem.Addr, uint64, bool) { return l.tail, 0, false }
