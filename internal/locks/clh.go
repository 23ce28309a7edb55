package locks

import (
	"hle/internal/mem"
	"hle/internal/tsx"
)

// CLH is the Craig/Landin/Hagersten queue lock of Algorithm 6: tail points
// at the last enqueued node; an arriving thread swaps its node in and spins
// on its predecessor's locked flag; release clears the thread's own flag
// and recycles the predecessor node. A CLH release never writes tail, so it
// is not HLE-compatible: the speculative path falls back to the standard
// path (Chapter 6).
type CLH struct {
	tail mem.Addr
	// myNode and pred are thread-local node pointers; the nodes
	// themselves live in simulated memory (one locked word each).
	myNode [MaxThreads]mem.Addr
	pred   [MaxThreads]mem.Addr
}

// NewCLH allocates a CLH lock whose tail initially points at an unlocked
// dummy node.
func NewCLH(t *tsx.Thread) *CLH {
	l := &CLH{tail: t.AllocLines(1)}
	dummy := t.AllocLines(1) // locked = 0
	t.LabelLockLines(l.tail, 1, "clh-tail")
	t.LabelLockLines(dummy, 1, "clh-node")
	t.Store(l.tail, uint64(dummy))
	return l
}

// Name implements Lock.
func (l *CLH) Name() string { return "CLH" }

// Fair implements Lock; CLH is FIFO.
func (l *CLH) Fair() bool { return true }

// Prepare allocates thread t's queue node.
func (l *CLH) Prepare(t *tsx.Thread) {
	if l.myNode[t.ID] == mem.Nil {
		l.myNode[t.ID] = t.AllocLines(1)
		t.LabelLockLines(l.myNode[t.ID], 1, "clh-node")
	}
}

// Acquire enqueues and waits on the predecessor's flag.
func (l *CLH) Acquire(t *tsx.Thread) {
	n := l.myNode[t.ID]
	if n == mem.Nil {
		panic("locks: CLH used before Prepare")
	}
	t.Store(n, 1)
	pred := mem.Addr(t.Swap(l.tail, uint64(n)))
	l.pred[t.ID] = pred
	t.SpinWhile(pred, 1)
}

// TryAcquire enqueues and waits its turn.
func (l *CLH) TryAcquire(t *tsx.Thread) bool {
	l.Acquire(t)
	return true
}

// Release clears the thread's flag and recycles the predecessor node.
func (l *CLH) Release(t *tsx.Thread) {
	t.Store(l.myNode[t.ID], 0)
	l.myNode[t.ID] = l.pred[t.ID]
}

// SpecAcquire falls back to the standard path (not HLE-compatible).
func (l *CLH) SpecAcquire(t *tsx.Thread) { l.Acquire(t) }

// SpecRelease falls back to the standard path.
func (l *CLH) SpecRelease(t *tsx.Thread) { l.Release(t) }

// Held implements Lock: the tail node's flag is set.
func (l *CLH) Held(t *tsx.Thread) bool {
	return t.Load(mem.Addr(t.Load(l.tail))) == 1
}

// AdjustedCLH is the paper's HLE-compatible CLH lock (Algorithm 7): release
// first tries to CAS tail back from myNode to pred, erasing the node's
// presence; in speculative or solo runs this always succeeds and restores
// the pre-acquire state. Otherwise release proceeds as standard CLH.
type AdjustedCLH struct {
	tail   mem.Addr
	myNode [MaxThreads]mem.Addr
	pred   [MaxThreads]mem.Addr
}

// NewAdjustedCLH allocates an adjusted CLH lock with an unlocked dummy
// tail node.
func NewAdjustedCLH(t *tsx.Thread) *AdjustedCLH {
	l := &AdjustedCLH{tail: t.AllocLines(1)}
	dummy := t.AllocLines(1)
	t.LabelLockLines(l.tail, 1, "adjclh-tail")
	t.LabelLockLines(dummy, 1, "adjclh-node")
	t.Store(l.tail, uint64(dummy))
	return l
}

// Name implements Lock.
func (l *AdjustedCLH) Name() string { return "AdjCLH" }

// Fair implements Lock.
func (l *AdjustedCLH) Fair() bool { return true }

// Addr returns the tail word's simulated address (tests use this).
func (l *AdjustedCLH) Addr() mem.Addr { return l.tail }

// Prepare allocates thread t's queue node.
func (l *AdjustedCLH) Prepare(t *tsx.Thread) {
	if l.myNode[t.ID] == mem.Nil {
		l.myNode[t.ID] = t.AllocLines(1)
		t.LabelLockLines(l.myNode[t.ID], 1, "adjclh-node")
	}
}

// Acquire is standard CLH acquisition (Algorithm 7's lock path without the
// XACQUIRE prefix).
func (l *AdjustedCLH) Acquire(t *tsx.Thread) {
	n := l.myNode[t.ID]
	if n == mem.Nil {
		panic("locks: AdjustedCLH used before Prepare")
	}
	t.Store(n, 1)
	pred := mem.Addr(t.Swap(l.tail, uint64(n)))
	l.pred[t.ID] = pred
	t.SpinWhile(pred, 1)
}

// TryAcquire enqueues and waits its turn.
func (l *AdjustedCLH) TryAcquire(t *tsx.Thread) bool {
	l.Acquire(t)
	return true
}

// Release implements Algorithm 7's unlock: try to pop the node off the
// tail; if other requesters arrived, hand over as standard CLH.
func (l *AdjustedCLH) Release(t *tsx.Thread) {
	n := l.myNode[t.ID]
	pred := l.pred[t.ID]
	if t.CAS(l.tail, uint64(n), uint64(pred)) {
		return
	}
	t.Store(n, 0)
	l.myNode[t.ID] = pred
}

// SpecAcquire enqueues with an XACQUIRE-prefixed swap. Under elision the
// swap returns the real tail node; if that node's flag is clear the elided
// critical section proceeds (concurrent elided threads all observe the same
// unlocked tail and run in parallel), otherwise the speculative spin
// aborts.
func (l *AdjustedCLH) SpecAcquire(t *tsx.Thread) {
	n := l.myNode[t.ID]
	if n == mem.Nil {
		panic("locks: AdjustedCLH used before Prepare")
	}
	t.Store(n, 1)
	pred := mem.Addr(t.XAcquireSwap(l.tail, uint64(n)))
	l.pred[t.ID] = pred
	t.SpinWhile(pred, 1)
}

// SpecRelease is Algorithm 7's unlock with an XRELEASE-prefixed CAS: under
// elision it restores tail to the predecessor (the pre-acquire value) and
// commits.
func (l *AdjustedCLH) SpecRelease(t *tsx.Thread) {
	n := l.myNode[t.ID]
	pred := l.pred[t.ID]
	if t.XReleaseCAS(l.tail, uint64(n), uint64(pred)) {
		return
	}
	t.Store(n, 0)
	l.myNode[t.ID] = pred
}

// Held implements Lock.
func (l *AdjustedCLH) Held(t *tsx.Thread) bool {
	return t.Load(mem.Addr(t.Load(l.tail))) == 1
}
