package locks

import (
	"hle/internal/mem"
	"hle/internal/tsx"
)

// Ticket is the classic ticket lock of Algorithm 4 (used by the Linux
// kernel): an arriving thread fetch-and-adds the next counter and waits for
// owner to reach its ticket; release increments owner. Releasing never
// restores next, so HLE cannot be applied (the XRELEASE store would not
// restore the elided value): the speculative path falls back to the
// standard path.
type Ticket struct {
	next    mem.Addr // owner lives at next+1, deliberately on the same line
	tickets [MaxThreads]uint64
}

const ticketOwnerOff = 1

// NewTicket allocates a ticket lock with next and owner sharing one line,
// as in the usual single-word implementation the paper describes.
func NewTicket(t *tsx.Thread) *Ticket {
	l := &Ticket{next: t.AllocLines(2)}
	t.LabelLockLines(l.next, 2, "ticket-lock")
	return l
}

// Name implements Lock.
func (l *Ticket) Name() string { return "Ticket" }

// Fair implements Lock; ticket locks are FIFO.
func (l *Ticket) Fair() bool { return true }

// Prepare implements Lock; the ticket lock has no simulated-memory
// per-thread state.
func (l *Ticket) Prepare(t *tsx.Thread) {}

// Acquire draws a ticket and waits for its turn.
func (l *Ticket) Acquire(t *tsx.Thread) {
	cur := t.FetchAdd(l.next, 1)
	l.tickets[t.ID] = cur
	t.Spin(l.next+ticketOwnerOff, cur, false, -1)
}

// TryAcquire draws a ticket and waits its turn (fair locks remember the
// request).
func (l *Ticket) TryAcquire(t *tsx.Thread) bool {
	l.Acquire(t)
	return true
}

// Release advances the owner counter.
func (l *Ticket) Release(t *tsx.Thread) {
	t.FetchAdd(l.next+ticketOwnerOff, 1)
}

// SpecAcquire falls back to the standard path: the unadjusted ticket lock
// is not HLE-compatible (Chapter 6).
func (l *Ticket) SpecAcquire(t *tsx.Thread) { l.Acquire(t) }

// SpecRelease falls back to the standard path.
func (l *Ticket) SpecRelease(t *tsx.Thread) { l.Release(t) }

// Held implements Lock.
func (l *Ticket) Held(t *tsx.Thread) bool {
	return t.Load(l.next) != t.Load(l.next+ticketOwnerOff)
}

// AdjustedTicket is the paper's HLE-compatible ticket lock (Algorithm 5):
// release first tries to CAS next back from current+1 to current, which
// succeeds exactly in speculative or solo runs and erases all traces of the
// acquisition; otherwise it falls back to advancing owner as usual.
type AdjustedTicket struct {
	next    mem.Addr
	tickets [MaxThreads]uint64
}

// NewAdjustedTicket allocates an adjusted ticket lock.
func NewAdjustedTicket(t *tsx.Thread) *AdjustedTicket {
	l := &AdjustedTicket{next: t.AllocLines(2)}
	t.LabelLockLines(l.next, 2, "adjticket-lock")
	return l
}

// Name implements Lock.
func (l *AdjustedTicket) Name() string { return "AdjTicket" }

// Fair implements Lock.
func (l *AdjustedTicket) Fair() bool { return true }

// Prepare implements Lock.
func (l *AdjustedTicket) Prepare(t *tsx.Thread) {}

// Addr returns the next counter's simulated address (tests use this).
func (l *AdjustedTicket) Addr() mem.Addr { return l.next }

// Acquire is the standard path of Algorithm 5 (the XACQUIRE prefix is the
// only difference on the lock side).
func (l *AdjustedTicket) Acquire(t *tsx.Thread) {
	cur := t.FetchAdd(l.next, 1)
	l.tickets[t.ID] = cur
	t.Spin(l.next+ticketOwnerOff, cur, false, -1)
}

// TryAcquire draws a ticket and waits its turn.
func (l *AdjustedTicket) TryAcquire(t *tsx.Thread) bool {
	l.Acquire(t)
	return true
}

// Release implements Algorithm 5's unlock: try to retract the ticket; if
// another requester arrived, advance owner instead.
func (l *AdjustedTicket) Release(t *tsx.Thread) {
	cur := l.tickets[t.ID]
	if !t.CAS(l.next, cur+1, cur) {
		t.FetchAdd(l.next+ticketOwnerOff, 1)
	}
}

// SpecAcquire draws a ticket with an XACQUIRE-prefixed fetch-and-add. In an
// elided run the thread sees itself alone: its ticket equals owner and it
// enters immediately; if the lock is busy the speculative spin aborts.
func (l *AdjustedTicket) SpecAcquire(t *tsx.Thread) {
	cur := t.XAcquireFetchAdd(l.next, 1)
	l.tickets[t.ID] = cur
	t.Spin(l.next+ticketOwnerOff, cur, false, -1)
}

// SpecRelease is Algorithm 5's unlock with an XRELEASE-prefixed CAS, which
// in an elided run always succeeds and restores the pre-acquire state,
// committing the transaction.
func (l *AdjustedTicket) SpecRelease(t *tsx.Thread) {
	cur := l.tickets[t.ID]
	if !t.XReleaseCAS(l.next, cur+1, cur) {
		t.FetchAdd(l.next+ticketOwnerOff, 1)
	}
}

// Held implements Lock.
func (l *AdjustedTicket) Held(t *tsx.Thread) bool {
	return t.Load(l.next) != t.Load(l.next+ticketOwnerOff)
}
