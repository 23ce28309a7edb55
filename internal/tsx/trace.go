package tsx

import "hle/internal/mem"

// EventKind identifies an engine event compactly. The hot paths record
// kinds, not strings: a kind is one byte, and its name is materialized only
// when an event is formatted (diagnostic dumps, hle-trace).
type EventKind uint8

// Engine event kinds.
const (
	EvNone      EventKind = iota
	EvLoad                // non-transactional load
	EvLoadBuf             // transactional load served from the write buffer
	EvLoadTx              // transactional load from memory
	EvStore               // non-transactional store
	EvStoreTx             // transactional (buffered) store
	EvSwap                // non-transactional atomic exchange
	EvPublish             // buffered store published at commit
	EvAddRead             // line added to the read set
	EvXacqElide           // XACQUIRE began elision
	EvXrelEnd             // XRELEASE ended elision
	EvReqLine             // coherence request issued for a line
	EvDoomed              // transaction doomed by a conflicting request
	EvBegin               // transaction begun
	EvCommit              // transaction committed
	EvAbort               // transaction aborted
	EvInjStall            // injected stall (fault injection)
	EvInjAbort            // injected spurious abort (fault injection)

	numEventKinds = int(EvInjAbort) + 1
)

// eventNames are the wire/dump names of the kinds; diagnostic dumps and
// trace-matching tests depend on these exact strings.
var eventNames = [numEventKinds]string{
	EvNone:      "none",
	EvLoad:      "load",
	EvLoadBuf:   "load-buf",
	EvLoadTx:    "load-tx",
	EvStore:     "store",
	EvStoreTx:   "store-tx",
	EvSwap:      "swap",
	EvPublish:   "publish",
	EvAddRead:   "addread",
	EvXacqElide: "xacq-elide",
	EvXrelEnd:   "xrel-end",
	EvReqLine:   "reqline",
	EvDoomed:    "doomed",
	EvBegin:     "begin",
	EvCommit:    "commit",
	EvAbort:     "abort",
	EvInjStall:  "inj-stall",
	EvInjAbort:  "inj-abort",
}

// String returns the event kind's dump name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// TraceEvent is one engine event captured by a machine's trace ring —
// the bounded flight recorder behind watchdog diagnostic dumps and
// hle-trace (Config.TraceRing): memory accesses, coherence requests and
// dooms, transaction lifecycle events (EvBegin, EvCommit, EvAbort) and
// injected faults (EvInjStall, EvInjAbort), each stamped with the issuing
// thread's virtual clock.
type TraceEvent struct {
	Thread int
	Clock  uint64
	Kind   EventKind
	Addr   mem.Addr
	Val    uint64
}

// traceRing is a fixed-size flight recorder. It is written only from
// simulated execution (token-serialized) and read only between Run calls,
// so it needs no synchronization; each machine owns its own ring, so
// host-parallel experiment points never share one.
type traceRing struct {
	buf  []TraceEvent
	next int
	full bool
}

func (r *traceRing) add(ev TraceEvent) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// events returns the recorded events oldest-first, as a copy.
func (r *traceRing) events() []TraceEvent {
	if !r.full {
		return append([]TraceEvent(nil), r.buf[:r.next]...)
	}
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// TraceEvents returns a copy of the machine's trace ring, oldest event
// first — the last Config.TraceRing engine events. It returns nil when the
// ring is disabled. Call it between Run calls (typically after a watchdog
// stop) — never while the machine is running.
func (m *Machine) TraceEvents() []TraceEvent {
	if m.ring == nil {
		return nil
	}
	return m.ring.events()
}

// trace records an event in the machine's ring: every engine event goes
// through it. With the ring disabled it is one nil check.
func (t *Thread) trace(kind EventKind, addr mem.Addr, val uint64) {
	if r := t.m.ring; r != nil {
		r.add(TraceEvent{Thread: t.ID, Clock: t.Clock(), Kind: kind, Addr: addr, Val: val})
	}
}
