package locks

import "hle/internal/tsx"

// Monitor maintains a waits-for graph over monitored locks: which thread
// holds each lock non-speculatively, and which lock each thread is waiting
// to acquire. The deadlock watchdog in internal/harness walks the graph.
//
// The graph is updated only from simulated execution (token-serialized by
// internal/sim), so it needs no synchronization of its own. One Monitor
// serves all the locks of one machine; never share a Monitor between
// machines running on different host goroutines.
//
// Only real, non-speculative acquisitions enter the graph: an elided
// critical section never actually holds the lock, so it can participate in
// a data conflict but not in a deadlock.
type Monitor struct {
	holder  map[Lock]int // lock -> holding thread
	waiting [MaxThreads]Lock
	have    [MaxThreads]bool // waiting[i] is valid
}

// NewMonitor returns an empty waits-for graph.
func NewMonitor() *Monitor {
	return &Monitor{holder: make(map[Lock]int)}
}

// Reset clears the graph (between Run calls; a watchdog-stopped run leaves
// stale holders behind).
func (mo *Monitor) Reset() {
	clear(mo.holder)
	for i := range mo.waiting {
		mo.waiting[i] = nil
		mo.have[i] = false
	}
}

func (mo *Monitor) wait(id int, l Lock) {
	mo.waiting[id] = l
	mo.have[id] = true
}

func (mo *Monitor) acquired(id int, l Lock) {
	mo.waiting[id] = nil
	mo.have[id] = false
	mo.holder[l] = id
}

func (mo *Monitor) abandoned(id int) {
	mo.waiting[id] = nil
	mo.have[id] = false
}

func (mo *Monitor) released(l Lock) {
	delete(mo.holder, l)
}

// Cycle returns a waits-for cycle as an ordered thread-id list (each thread
// waits on a lock held by the next, wrapping around), or nil if the graph
// is acyclic. Starting points are scanned in thread-id order so the result
// is deterministic — never a function of map iteration order.
func (mo *Monitor) Cycle() []int {
	for start := 0; start < MaxThreads; start++ {
		if !mo.have[start] {
			continue
		}
		var path []int
		onPath := [MaxThreads]bool{}
		id := start
		for {
			if !mo.have[id] {
				break // chain ends at a thread that is not waiting
			}
			holder, held := mo.holder[mo.waiting[id]]
			if !held {
				break // waiting on a free (or elided) lock
			}
			if onPath[id] {
				// Found a cycle; trim the lead-in before id.
				for i, p := range path {
					if p == id {
						return path[i:]
					}
				}
			}
			onPath[id] = true
			path = append(path, id)
			id = holder
		}
	}
	return nil
}

// monitoredLock wraps a Lock, reporting standard-path transitions to a
// Monitor. The wrapper performs no simulated memory accesses of its own,
// so monitoring never changes the simulated execution — only the
// host-side graph. The speculative path is passed through unreported:
// elided acquisitions do not hold the lock (see Monitor).
type monitoredLock struct {
	Lock
	mo *Monitor
}

// Monitored wraps l so its non-speculative transitions update mo.
func Monitored(l Lock, mo *Monitor) Lock {
	return &monitoredLock{Lock: l, mo: mo}
}

func (ml *monitoredLock) Acquire(t *tsx.Thread) {
	ml.mo.wait(t.ID, ml.Lock)
	ml.Lock.Acquire(t)
	ml.mo.acquired(t.ID, ml.Lock)
}

func (ml *monitoredLock) TryAcquire(t *tsx.Thread) bool {
	ml.mo.wait(t.ID, ml.Lock)
	if ml.Lock.TryAcquire(t) {
		ml.mo.acquired(t.ID, ml.Lock)
		return true
	}
	ml.mo.abandoned(t.ID)
	return false
}

func (ml *monitoredLock) Release(t *tsx.Thread) {
	ml.Lock.Release(t)
	ml.mo.released(ml.Lock)
}

// SpecRelease must unregister when the elision fell back to a real
// acquisition: HLERegion re-issues the acquiring write non-speculatively
// after an abort, and that path goes through the inner lock's
// SpecAcquire/SpecRelease, not Acquire/Release. Elision is sampled before
// the inner call — SpecRelease commits an elided region, so afterwards
// both paths look identical.
func (ml *monitoredLock) SpecRelease(t *tsx.Thread) {
	elided := t.InElision()
	ml.Lock.SpecRelease(t)
	if !elided {
		// The region was a real critical section.
		ml.mo.released(ml.Lock)
	}
}

// SpecAcquire registers a hold only when the acquisition ends up real —
// the non-transactional re-issue after an HLE abort, or a lock whose
// speculative path falls back to the standard one. While elided (or
// buffered inside an enclosing transaction), the thread neither holds nor
// waits.
func (ml *monitoredLock) SpecAcquire(t *tsx.Thread) {
	if t.ReissuePending() {
		ml.mo.wait(t.ID, ml.Lock)
	}
	ml.Lock.SpecAcquire(t)
	if !t.InTx() {
		ml.mo.acquired(t.ID, ml.Lock)
	} else {
		ml.mo.abandoned(t.ID)
	}
}
