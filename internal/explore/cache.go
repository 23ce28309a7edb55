package explore

// specCache banks chained-replay outcomes until the wave that needs them.
// It is keyed by exact prefix, partitioned by prefix length so dead
// generations purge in O(1) map drops: breadth-first search visits each
// prefix length exactly once, so after the wave of length n has consumed
// its hits every remaining length-n entry is unreachable forever.
//
// The cache is NOT an LRU: all inserts and lookups happen sequentially in
// the merge loop's deterministic order, and eviction is by generation
// (purge) plus a hard byte budget at insert (cacheBytes; reject, never
// evict — an evicted entry would change which nodes fork, and while that
// could never change the search's RESULTS, it would make fork/replay
// statistics depend on insert timing).
type specCache struct {
	byLen map[int]map[string]runOutcome
	bytes int64
	peak  int64
}

// testCorruptBank, when non-nil, mutates every outcome as it is banked.
// The stale-checkpoint mutation tests install it to prove the
// fork-validation mode catches a bank that disagrees with scratch replay;
// production code must leave it nil.
var testCorruptBank func(prefix []uint8, o *runOutcome)

// outcomeBytes estimates an entry's memory footprint: map overhead, the
// prefix key, and the outcome's slices.
func outcomeBytes(prefixLen int, o *runOutcome) int64 {
	return int64(96 + prefixLen + len(o.enabled) +
		16*(len(o.lastEdge.accesses)+len(o.lastEdge.txLines)))
}

func (sc *specCache) put(prefix []uint8, o runOutcome) {
	if testCorruptBank != nil {
		testCorruptBank(prefix, &o)
	}
	sz := outcomeBytes(len(prefix), &o)
	if sc.bytes+sz > cacheBytes {
		return
	}
	m := sc.byLen[len(prefix)]
	if m == nil {
		m = make(map[string]runOutcome)
		sc.byLen[len(prefix)] = m
	}
	m[string(prefix)] = o
	sc.bytes += sz
	if sc.bytes > sc.peak {
		sc.peak = sc.bytes
	}
}

func (sc *specCache) take(prefix []uint8) (runOutcome, bool) {
	m := sc.byLen[len(prefix)]
	if m == nil {
		return runOutcome{}, false
	}
	o, ok := m[string(prefix)]
	if !ok {
		return runOutcome{}, false
	}
	delete(m, string(prefix))
	sc.bytes -= outcomeBytes(len(prefix), &o)
	return o, true
}

// purgeLen drops every entry of one prefix length, counting them as wasted
// speculation.
func (sc *specCache) purgeLen(n int, wasted *uint64) {
	m := sc.byLen[n]
	if m == nil {
		return
	}
	for k, o := range m {
		*wasted++
		sc.bytes -= outcomeBytes(len(k), &o)
	}
	delete(sc.byLen, n)
}

// drainAll purges every remaining generation (search over: bound hit or
// violation found).
func (sc *specCache) drainAll(wasted *uint64) {
	for n := range sc.byLen {
		sc.purgeLen(n, wasted)
	}
}
