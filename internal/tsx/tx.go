package tsx

import (
	"math"
	"math/bits"

	"hle/internal/mem"
)

// txState is the hardware context of one in-flight transaction.
type txState struct {
	readLines  []int
	writeLines []int
	writeBuf   writeBuf
	writeOrder []mem.Addr

	doomed       bool
	abortCause   Cause
	abortCode    uint8
	conflictLine int
	// aggressor is the thread whose coherence request doomed this
	// transaction (requestor wins), or -1: profiling attribution only.
	aggressor int8
	// injected marks an abort forced by a fault injector; the program
	// sees it as spurious, profiles attribute it separately.
	injected bool
	// beginClock is the thread's virtual clock at begin, for profiling
	// latency attribution.
	beginClock uint64

	// HLE elision state.
	elided     bool
	hleOuter   bool // transaction was begun by the XAcquire itself
	elidedAddr mem.Addr
	elidedOld  uint64 // lock value before XACQUIRE; XRELEASE must restore it
	elidedVal  uint64 // the value the elided store "wrote" (the illusion)

	// lazyCheck is the deferred lock-subscription predicate registered by
	// LazySubscribe under SubLazy, evaluated by the commit pipeline
	// (commitLazy). Nil when no RTM subscription is pending.
	lazyCheck func() bool

	nest       int // flat nesting depth of RTM regions
	accesses   int
	spuriousAt int  // access index at which a spurious abort fires
	evictAt    int  // read-line count at which imprecise tracking evicts
	evictDrawn bool // evictAt has been sampled (drawn lazily at the L1 boundary)

	allocs []allocRec // allocations to roll back on abort
	frees  []allocRec // frees deferred to commit
}

type allocRec struct {
	addr  mem.Addr
	n     int
	lines bool
}

const allocCost = 12

// newTxState returns a fresh transaction context ready for reset/use.
func newTxState() *txState {
	tx := &txState{}
	tx.writeBuf.init()
	return tx
}

// txContext hands proc id its transaction context for the current Run, on
// the thread's first transaction: the machine's pooled one, or a new one
// the first time. A pooled context is scrubbed of the one thing reset
// keeps from the previous transaction, the last elision (MixTxState hashes
// it), so every Run's threads start exactly as with new contexts.
func (m *Machine) txContext(id int) *txState {
	for len(m.txCtx) <= id {
		m.txCtx = append(m.txCtx, nil)
	}
	tx := m.txCtx[id]
	if tx == nil {
		tx = newTxState()
		m.txCtx[id] = tx
	}
	tx.elidedOld, tx.elidedVal = 0, 0
	return tx
}

// bufGet returns the buffered value for a, if any.
func (tx *txState) bufGet(a mem.Addr) (uint64, bool) {
	return tx.writeBuf.get(a)
}

// reset prepares a pooled txState for reuse.
func (tx *txState) reset() {
	tx.readLines = tx.readLines[:0]
	tx.writeLines = tx.writeLines[:0]
	tx.writeBuf.reset()
	tx.writeOrder = tx.writeOrder[:0]
	tx.doomed = false
	tx.abortCause = CauseNone
	tx.abortCode = 0
	tx.conflictLine = 0
	tx.aggressor = -1
	tx.injected = false
	tx.elided = false
	tx.hleOuter = false
	tx.elidedAddr = mem.Nil
	tx.lazyCheck = nil
	tx.nest = 0
	tx.accesses = 0
	tx.evictDrawn = false
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
}

// InTx reports whether the thread is executing transactionally (XTEST).
func (t *Thread) InTx() bool { return t.tx != nil }

// beginTx starts a transaction on t. Exactly one of the RTM/HLE entry
// points calls it.
//
// beginTx deliberately performs no Step: callers charge the begin cost
// (and yield the scheduler token) BEFORE any snapshot/registration
// sequence, so that starting a transaction is atomic with respect to
// concurrent simulated threads — exactly as XBEGIN/XACQUIRE are single
// instructions on hardware.
func (t *Thread) beginTx() *txState {
	if t.tx != nil {
		panic("tsx: beginTx while already in a transaction")
	}
	tx := t.txPool
	if tx == nil {
		tx = t.m.txContext(t.ID)
		t.txPool = tx
	}
	tx.reset()
	tx.spuriousAt = t.drawSpuriousAt()
	// The eviction point is sampled lazily when the read set first
	// crosses the L1 boundary — most transactions never get there, and
	// the draw costs a Log and a Pow.
	tx.evictAt = t.m.cfg.L1ReadLines
	tx.beginClock = t.Clock()
	t.tx = tx
	t.Stats.Begun++
	t.trace(EvBegin, mem.Nil, 0)
	if o := t.m.obs; o != nil {
		o.TxBegin(t.ID, tx.beginClock)
	}
	return tx
}

// drawEvictAt samples the read-line count at which the imprecise read-set
// tracker evicts a line. Derived from a per-line eviction probability of
// ((n-L1)/(cap-L1))^k, aggregated so that only one random draw per
// transaction is needed.
func (t *Thread) drawEvictAt() int {
	cfg := &t.m.cfg
	l1 := cfg.L1ReadLines
	capacity := cfg.ReadSetLines
	if capacity <= l1 {
		return capacity
	}
	u := t.Rand().Float64()
	if u <= 0 {
		u = 1e-300
	}
	k := cfg.EvictExponent
	// Survival through n lines: exp(-C*x^(k+1)) with x=(n-l1)/(cap-l1)
	// and C=(cap-l1)/(k+1). Invert at -ln(u).
	c := float64(capacity-l1) / (k + 1)
	x := math.Pow(-math.Log(u)/c, 1/(k+1))
	n := l1 + int(x*float64(capacity-l1))
	if n > capacity {
		n = capacity
	}
	return n
}

// abortNow rolls the current transaction back and unwinds to the begin
// point. cause is ignored when the transaction was already doomed by a
// conflict (the conflict information wins).
func (t *Thread) abortNow(cause Cause, code uint8) {
	tx := t.tx
	if tx == nil {
		panic("tsx: abortNow outside a transaction")
	}
	if !tx.doomed {
		tx.abortCause = cause
		tx.abortCode = code
	}
	panic(txAbortSignal{})
}

// finishAbort performs rollback bookkeeping after an abort unwound to the
// transaction's begin point, and returns the abort status.
func (t *Thread) finishAbort() Status {
	tx := t.tx
	for _, al := range tx.allocs {
		t.cachePut(al)
	}
	t.clearLineBits(tx)
	t.tx = nil
	t.Stats.Aborted[tx.abortCause]++
	t.trace(EvAbort, mem.LineAddr(tx.conflictLine), uint64(tx.abortCause))
	if o := t.m.obs; o != nil {
		o.TxAbort(t.ID, t.Clock(), tx.beginClock, tx.abortCause,
			tx.conflictLine, int(tx.aggressor), tx.injected, tx.elided)
	}
	t.Step(t.m.cfg.Costs.Abort)
	return statusFor(tx)
}

// commit attempts to make the transaction's effects globally visible.
// A doomed transaction aborts instead (unwinding via panic).
//
// The eager path below is windowless: from the doom check to the return
// there are no scheduler yields before publication (the Commit cost is
// charged after the transaction is closed), so commit is atomic with
// respect to other simulated threads, as XEND is on hardware. A pending
// lazy subscription routes through commitLazy instead, which deliberately
// opens a commit window.
func (t *Thread) commit() {
	tx := t.tx
	if tx.doomed {
		t.abortNow(CauseConflict, 0)
	}
	if tx.lazyCheck != nil || (tx.elided && t.LazySubscription()) {
		t.commitLazy(tx)
		return
	}
	for _, a := range tx.writeOrder {
		v, _ := tx.writeBuf.get(a)
		t.trace(EvPublish, a, v)
		t.m.Mem.Write(a, v)
	}
	for _, f := range tx.frees {
		t.m.Mem.CheckFree(f.addr, f.n, f.lines)
		t.cachePut(f)
	}
	t.clearLineBits(tx)
	t.tx = nil
	t.trace(EvCommit, mem.Nil, uint64(tx.accesses))
	if o := t.m.obs; o != nil {
		o.TxCommit(t.ID, t.Clock(), tx.beginClock, tx.accesses)
	}
	t.Stats.Committed++
	t.Stats.CommittedReadLines += uint64(len(tx.readLines))
	t.Stats.CommittedWriteLines += uint64(len(tx.writeLines))
	t.Stats.CommittedAccesses += uint64(tx.accesses)
	t.Step(t.m.cfg.Costs.Commit)
}

func (t *Thread) clearLineBits(tx *txState) {
	bit := ^t.bit
	for _, l := range tx.readLines {
		t.m.Mem.LineByIndex(l).Readers &= bit
	}
	for _, l := range tx.writeLines {
		t.m.Mem.LineByIndex(l).Writers &= bit
	}
}

// txPreAccess runs the per-access checks of an in-flight transaction:
// conflict dooming raised by other threads, spurious aborts, and the
// safety bound on transaction length.
func (t *Thread) txPreAccess(tx *txState) {
	if tx.doomed {
		t.abortNow(CauseConflict, 0)
	}
	tx.accesses++
	if tx.accesses >= tx.spuriousAt {
		t.abortNow(CauseSpurious, 0)
	}
	if tx.accesses > t.m.cfg.MaxTxAccesses {
		// Real hardware would eventually abort a runaway transaction
		// via a timer interrupt; model that as a spurious abort.
		t.abortNow(CauseSpurious, 0)
	}
}

// txLoadValue returns the transaction-local view of the word at a without
// touching read/write sets.
func (t *Thread) txLoadValue(tx *txState, a mem.Addr) uint64 {
	if v, ok := tx.writeBuf.get(a); ok {
		return v
	}
	if tx.elided && a == tx.elidedAddr {
		return tx.elidedVal
	}
	return t.m.Mem.Read(a)
}

func (tx *txState) bufWrite(a mem.Addr, v uint64) {
	if tx.writeBuf.put(a, v) {
		tx.writeOrder = append(tx.writeOrder, a)
	}
}

// txTouchRead adds line to the read set, enforcing capacity and the
// Chapter 7 miss-while-lock-held suspension.
func (t *Thread) txTouchRead(tx *txState, line int) {
	lm := t.m.Mem.LineByIndex(line)
	bit := t.bit
	if (lm.Readers|lm.Writers)&bit != 0 {
		return // cache hit: already tracked in either set
	}
	t.hwextMissCheck(tx)
	n := len(tx.readLines)
	if n >= tx.evictAt {
		if !tx.evictDrawn {
			tx.evictDrawn = true
			tx.evictAt = t.drawEvictAt()
		}
		if n >= tx.evictAt || n >= t.m.cfg.ReadSetLines {
			t.abortNow(CauseCapacityRead, 0)
		}
	}
	// The read is a coherence request: requestor wins, so it dooms any
	// other transaction holding the line in its write set.
	t.m.requestLine(line, t, false)
	t.trace(EvAddRead, mem.LineAddr(line), lm.Readers)
	lm.Readers |= bit
	tx.readLines = append(tx.readLines, line)
}

// txTouchWrite adds line to the write set (an RFO), dooming other
// transactional readers and writers of the line.
func (t *Thread) txTouchWrite(tx *txState, line int) {
	lm := t.m.Mem.LineByIndex(line)
	bit := t.bit
	if lm.Writers&bit != 0 {
		return
	}
	// Expanding the write set needs an RFO even when the line is already
	// in the read set, so under the Chapter 7 extension it counts as a
	// miss: it must wait for the lock to be free. (Skipping the check for
	// read-to-write upgrades would let a speculative writer commit around
	// a non-speculative critical section that read the same line — a lost
	// update.)
	t.hwextMissCheck(tx)
	limit := t.m.cfg.WriteSetLines
	if inj := t.m.inj; inj != nil {
		// A transient capacity squeeze (e.g. a sibling hyperthread
		// evicting L1 ways) lowers the effective write-set limit.
		limit = inj.WriteCap(t.ID, t.Clock(), limit)
		if limit < 1 {
			limit = 1
		}
	}
	if len(tx.writeLines) >= limit {
		t.abortNow(CauseCapacityWrite, 0)
	}
	t.m.requestLine(line, t, true)
	lm.Writers |= bit
	tx.writeLines = append(tx.writeLines, line)
}

// hwextMissCheck implements the Chapter 7 extension: under HWExt, a
// speculative HLE thread that misses in its cache while the elided lock is
// held non-speculatively suspends until the lock is released (or the thread
// suffers a data conflict). Without HWExt this is a no-op; the avalanche
// dynamics then follow from the lock line sitting in the read set.
func (t *Thread) hwextMissCheck(tx *txState) {
	if !t.m.cfg.HWExt || !tx.elided {
		return
	}
	if t.m.cfg.Unsound == UnsoundHWExtNoSuspend {
		// Seeded Lemma 1 fault (mutation testing): expand the footprint
		// without waiting for the lock. Data conflicts still doom the
		// transaction at the next access, which is exactly why the bug is
		// a one-interleaving unsoundness rather than an obvious one.
		return
	}
	const maxWaitIters = 1 << 20
	for i := 0; ; i++ {
		if tx.doomed {
			t.abortNow(CauseConflict, 0)
		}
		if t.m.Mem.Read(tx.elidedAddr) == tx.elidedOld {
			return // lock is free: safe to expand the read/write set
		}
		if i >= maxWaitIters {
			t.abortNow(CauseSpurious, 0)
		}
		t.Step(t.m.cfg.Costs.Wait)
	}
}

// requestLine models a coherence request for a cache line arriving from
// thread req (or from outside the simulation when req is nil). Under the
// requestor-wins policy, a write request dooms every other transaction
// holding the line in either set; a read request dooms other transactional
// writers.
func (m *Machine) requestLine(line int, req *Thread, isWrite bool) {
	lm := m.Mem.LineByIndex(line)
	victims := lm.Writers
	if isWrite {
		victims |= lm.Readers
	}
	if req != nil {
		req.trace(EvReqLine, mem.LineAddr(line), victims)
		victims &^= uint64(1) << uint(req.ID)
	}
	for victims != 0 {
		id := bits.TrailingZeros64(victims)
		victims &^= uint64(1) << uint(id)
		v := m.threads[id]
		if v == nil || v.tx == nil || v.tx.doomed {
			continue
		}
		v.tx.doomed = true
		v.tx.abortCause = CauseConflict
		v.tx.conflictLine = line
		if req != nil {
			v.tx.aggressor = int8(req.ID)
		} else {
			v.tx.aggressor = -1
		}
		v.trace(EvDoomed, mem.LineAddr(line), 0)
	}
}

// Load performs a simulated load of the word at address a. Inside a
// transaction the line joins the read set; outside, the access dooms
// conflicting transactional writers (requestor wins).
//
// The access paths below compute the line index exactly once per access and
// thread it through the charge/touch/request helpers: the index math and
// the repeated map probes this replaces were the simulator's hottest
// instructions under profiling.
func (t *Thread) Load(a mem.Addr) uint64 {
	t.Step(t.m.cfg.Costs.Load)
	line := int(a >> mem.LineShift)
	t.chargeLine(line)
	t.inject(line, false)
	tx := t.tx
	if tx == nil {
		t.m.requestLine(line, t, false)
		v := t.m.Mem.Read(a)
		t.trace(EvLoad, a, v)
		return v
	}
	t.txPreAccess(tx)
	if v, ok := tx.writeBuf.get(a); ok {
		t.trace(EvLoadBuf, a, v)
		return v
	}
	if tx.elided && a == tx.elidedAddr {
		// HLE's illusion: the transaction sees the value its elided
		// acquiring store "wrote". Under the Chapter 7 extension the
		// lock line is not placed in the read set unless accessed as
		// data, so this forwarding carries no conflict footprint; under
		// lazy subscription the forwarding comes from the store buffer
		// and the subscription stays deferred to commit.
		if !t.m.cfg.HWExt && !t.LazySubscription() {
			t.txTouchRead(tx, line)
		}
		return tx.elidedVal
	}
	t.txTouchRead(tx, line)
	v := t.m.Mem.Read(a)
	t.trace(EvLoadTx, a, v)
	return v
}

// Store performs a simulated store of v to address a. Transactional stores
// are buffered and published at commit.
func (t *Thread) Store(a mem.Addr, v uint64) {
	t.Step(t.m.cfg.Costs.Store)
	line := int(a >> mem.LineShift)
	t.chargeLine(line)
	t.inject(line, true)
	tx := t.tx
	if tx == nil {
		t.trace(EvStore, a, v)
		t.m.requestLine(line, t, true)
		t.m.Mem.Write(a, v)
		return
	}
	t.txPreAccess(tx)
	t.txTouchWrite(tx, line)
	t.trace(EvStoreTx, a, v)
	tx.bufWrite(a, v)
}

// CAS performs a compare-and-swap on the word at a, returning whether the
// swap happened. Like the x86 LOCK CMPXCHG, a failed CAS still issues a
// write request for the line.
func (t *Thread) CAS(a mem.Addr, old, new uint64) bool {
	t.Step(t.m.cfg.Costs.RMW)
	line := int(a >> mem.LineShift)
	t.chargeLine(line)
	t.inject(line, true)
	tx := t.tx
	if tx == nil {
		t.m.requestLine(line, t, true)
		if t.m.Mem.Read(a) != old {
			return false
		}
		t.m.Mem.Write(a, new)
		return true
	}
	t.txPreAccess(tx)
	cur := t.txLoadValue(tx, a)
	t.txTouchWrite(tx, line)
	if cur != old {
		return false
	}
	tx.bufWrite(a, new)
	return true
}

// Swap atomically exchanges the word at a with v, returning the old value.
func (t *Thread) Swap(a mem.Addr, v uint64) uint64 {
	t.Step(t.m.cfg.Costs.RMW)
	line := int(a >> mem.LineShift)
	t.chargeLine(line)
	t.inject(line, true)
	tx := t.tx
	if tx == nil {
		t.trace(EvSwap, a, v)
		t.m.requestLine(line, t, true)
		old := t.m.Mem.Read(a)
		t.m.Mem.Write(a, v)
		return old
	}
	t.txPreAccess(tx)
	old := t.txLoadValue(tx, a)
	t.txTouchWrite(tx, line)
	tx.bufWrite(a, v)
	return old
}

// FetchAdd atomically adds delta to the word at a, returning the previous
// value.
func (t *Thread) FetchAdd(a mem.Addr, delta uint64) uint64 {
	t.Step(t.m.cfg.Costs.RMW)
	line := int(a >> mem.LineShift)
	t.chargeLine(line)
	t.inject(line, true)
	tx := t.tx
	if tx == nil {
		t.m.requestLine(line, t, true)
		old := t.m.Mem.Read(a)
		t.m.Mem.Write(a, old+delta)
		return old
	}
	t.txPreAccess(tx)
	old := t.txLoadValue(tx, a)
	t.txTouchWrite(tx, line)
	tx.bufWrite(a, old+delta)
	return old
}

// Pause models the PAUSE instruction: a spin-loop hint outside a
// transaction, an abort inside one (as on Haswell).
func (t *Thread) Pause() {
	t.Step(t.m.cfg.Costs.Pause)
	if t.tx != nil && t.m.cfg.PauseAborts {
		t.abortNow(CausePause, 0)
	}
}

// cachePut returns a block to the thread-local allocator cache. The block
// was already checked live (by Thread.Free/FreeLines or by an aborted
// allocation's rollback), so the push is unconditional.
func (t *Thread) cachePut(r allocRec) {
	if t.freeCache == nil {
		t.freeCache = new(mem.FreeTable)
	}
	t.freeCache.Push(r.n, r.lines, r.addr)
}

// cacheGet takes a block from the thread-local cache, or mem.Nil.
func (t *Thread) cacheGet(n int, lines bool) mem.Addr {
	if t.freeCache == nil {
		return mem.Nil
	}
	a := t.freeCache.Pop(n, lines)
	if a != mem.Nil {
		t.m.Mem.NoteAlloc(a, n, lines)
	}
	return a
}

// flushFreeCache returns the thread cache to the global allocator; called
// when the thread's body finishes so blocks survive across runs. The
// blocks already passed their free-time debug checks, so they bypass them
// here (Recycle, not Free).
func (t *Thread) flushFreeCache() {
	if t.freeCache == nil {
		return
	}
	m := t.m.Mem
	t.freeCache.Drain(func(n int, lines bool, a mem.Addr) {
		m.Recycle(a, n, lines)
	})
}

// Alloc allocates n words of simulated memory and zeroes them through the
// transactional store path, so that recycling a block whose lines are still
// in some transaction's read set raises a proper conflict. Allocation is
// served from a thread-local cache first (jemalloc-style), so blocks freed
// by one thread are not immediately handed to another. Fresh blocks land
// where the machine's placement policy puts them; under the arena policy
// the thread ID selects the arena.
func (t *Thread) Alloc(n int) mem.Addr {
	t.Step(allocCost)
	a := t.cacheGet(n, false)
	if a == mem.Nil {
		a = t.m.Mem.AllocOwned(t.ID, n)
	}
	if t.tx != nil {
		t.tx.allocs = append(t.tx.allocs, allocRec{a, n, false})
	}
	for i := 0; i < n; i++ {
		t.Store(a+mem.Addr(i), 0)
	}
	return a
}

// AllocLines allocates n words on a private cache line (padded), zeroed
// transactionally. Contended words such as locks use this.
func (t *Thread) AllocLines(n int) mem.Addr {
	t.Step(allocCost)
	a := t.cacheGet(n, true)
	if a == mem.Nil {
		a = t.m.Mem.AllocLines(n)
	}
	if t.tx != nil {
		t.tx.allocs = append(t.tx.allocs, allocRec{a, n, true})
	}
	for i := 0; i < n; i++ {
		t.Store(a+mem.Addr(i), 0)
	}
	return a
}

// Free releases an Alloc-obtained block into the thread cache. Inside a
// transaction the free is deferred to commit and dropped on abort. In
// mem.DebugChecks mode, freeing an AllocLines block here panics (at commit
// time for transactional frees).
func (t *Thread) Free(a mem.Addr, n int) {
	t.Step(allocCost)
	if t.tx != nil {
		t.tx.frees = append(t.tx.frees, allocRec{a, n, false})
		return
	}
	t.m.Mem.CheckFree(a, n, false)
	t.cachePut(allocRec{a, n, false})
}

// FreeLines releases an AllocLines-obtained block into the thread cache.
func (t *Thread) FreeLines(a mem.Addr, n int) {
	t.Step(allocCost)
	if t.tx != nil {
		t.tx.frees = append(t.tx.frees, allocRec{a, n, true})
		return
	}
	t.m.Mem.CheckFree(a, n, true)
	t.cachePut(allocRec{a, n, true})
}
