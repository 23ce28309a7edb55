// Package check provides a serializability checker for critical-section
// schemes: concurrent operations draw a ticket from a transactional
// sequence cell inside their critical section, so the ticket order IS the
// serialization order (the cell is read and written under the same
// lock/transaction as the operation itself). After the run, the recorded
// operations are replayed in ticket order against a sequential model and
// every recorded result must match.
//
// This is a stronger correctness statement than invariant checks: it
// verifies that the interleaved execution is equivalent to some sequential
// one, operation by operation, result by result.
package check

import (
	"cmp"
	"fmt"
	"slices"

	"hle/internal/core"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// Op is one recorded operation instance.
type Op struct {
	// Seq is the serialization ticket drawn inside the critical section.
	Seq uint64
	// Thread is the executing simulated thread.
	Thread int
	// Kind and Key describe the operation.
	Kind string
	Key  uint64
	// Result is the value the operation returned to its caller.
	Result uint64
}

// Recorder hands out serialization tickets and accumulates the log.
type Recorder struct {
	seqCell mem.Addr
	log     []Op
	// sorted is Verify's scratch copy of the log, kept so that verifying
	// again (the model checker verifies every terminal replay) allocates
	// nothing once it has grown.
	sorted []Op
}

// NewRecorder allocates the ticket cell in simulated memory.
func NewRecorder(t *tsx.Thread) *Recorder {
	return &Recorder{seqCell: t.AllocLines(1)}
}

// Fresh returns a new Recorder sharing this one's ticket cell with an
// empty log. It exists for checkpoint forking: the cell's allocation and
// contents live in simulated memory (captured by a machine checkpoint),
// so a forked run needs only a fresh Go-side log bound to the same cell.
func (r *Recorder) Fresh() *Recorder {
	return &Recorder{seqCell: r.seqCell}
}

// Reset empties the log in place, keeping the ticket cell, so a reused
// Recorder starts a forked run exactly like one from Fresh (the model
// checker's replay rigs reuse theirs).
func (r *Recorder) Reset() { r.log = r.log[:0] }

// Ticket draws the next serialization ticket; call it inside the critical
// section (it performs a transactional read-modify-write of the shared
// cell, so it orders exactly like the operation's own accesses).
func (r *Recorder) Ticket(t *tsx.Thread) uint64 {
	seq := t.Load(r.seqCell)
	t.Store(r.seqCell, seq+1)
	return seq
}

// Record appends a completed operation. Call it after scheme.Run returns,
// with the ticket drawn by the completing execution. (Aborted speculative
// executions drew tickets too, but their stores rolled back, so completed
// tickets are dense and unique.)
func (r *Recorder) Record(op Op) {
	// Token-serialized execution makes the plain append safe.
	r.log = append(r.log, op)
}

// Model is a sequential specification: Apply executes one operation and
// returns the expected result.
type Model func(kind string, key uint64) uint64

// Verify replays the log in ticket order against the model. It returns an
// error describing the first divergence, or nil if the history is
// serializable with respect to the model.
func (r *Recorder) Verify(model Model) error {
	r.sorted = append(r.sorted[:0], r.log...)
	slices.SortFunc(r.sorted, func(a, b Op) int { return cmp.Compare(a.Seq, b.Seq) })
	for i, op := range r.sorted {
		if uint64(i) != op.Seq {
			return fmt.Errorf("ticket %d missing or duplicated (position %d held by %+v)", i, i, op)
		}
		if want := model(op.Kind, op.Key); want != op.Result {
			return fmt.Errorf("op %d (%s key=%d by thread %d): result %d, sequential witness expects %d",
				op.Seq, op.Kind, op.Key, op.Thread, op.Result, want)
		}
	}
	return nil
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int { return len(r.log) }

// RunChecked is a convenience: it wraps a critical section that draws a
// ticket and produces a result, runs it under the scheme, and records the
// completing execution. The ticket is drawn AFTER the operation body,
// just before the section ends: it orders identically (the draw is inside
// the same transaction or lock hold, so ticket order is commit order),
// but the shared cell is exposed to conflicts for only the few cycles of
// its read-modify-write instead of the whole operation — a start-of-
// section draw would make every pair of overlapping speculations
// conflict, serializing checked workloads no matter how disjoint their
// data accesses are.
func (r *Recorder) RunChecked(t *tsx.Thread, s core.Scheme, kind string, key uint64,
	cs func() uint64) {
	var seq, result uint64
	s.Run(t, func() {
		result = cs()
		seq = r.Ticket(t)
	})
	r.Record(Op{Seq: seq, Thread: t.ID, Kind: kind, Key: key, Result: result})
}
