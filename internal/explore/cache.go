package explore

import "unsafe"

// specCache banks chained-replay outcomes until the wave that needs them.
// It is keyed by exact prefix, partitioned by prefix length so a dead
// generation purges all at once: breadth-first search visits each
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
	byLen map[int]*bankGen
	// spare holds purged generations for reuse: their map and entry
	// storage serve a later length, so banking stops growing storage
	// once the search has seen its widest generation.
	spare []*bankGen
	bytes int64
	peak  int64
}

// bankGen is one prefix length's banked outcomes. Entries are never
// deleted one by one — deleting by a []byte-converted key allocates the
// key — but marked taken, and the whole generation is purged at once.
type bankGen struct {
	index   map[string]int32 // prefix -> entries index
	entries []bankEntry
	taken   int
}

type bankEntry struct {
	out   runOutcome
	taken bool
}

func newSpecCache() *specCache {
	return &specCache{byLen: make(map[int]*bankGen)}
}

// testCorruptBank, when non-nil, mutates every outcome before it is
// banked. The stale-checkpoint mutation tests install it to prove the
// fork-validation mode catches a bank that disagrees with scratch replay;
// production code must leave it nil.
var testCorruptBank func(prefix []uint8, o *runOutcome)

// entryBytes estimates a banked entry's memory footprint: its index slot
// (the key's string header, the entry index and about a word of control
// byte and load-factor slack), its entry, and the key's bytes.
func entryBytes(prefixLen int) int64 {
	return 16 + 8 + int64(unsafe.Sizeof(bankEntry{})) + int64(prefixLen)
}

// put banks a copy of o under prefix. The key string is the entry's one
// allocation.
func (sc *specCache) put(prefix []uint8, o *runOutcome) {
	sz := entryBytes(len(prefix))
	if sc.bytes+sz > cacheBytes {
		return
	}
	g := sc.byLen[len(prefix)]
	if g == nil {
		if k := len(sc.spare); k > 0 {
			g = sc.spare[k-1]
			sc.spare = sc.spare[:k-1]
		} else {
			g = &bankGen{index: make(map[string]int32)}
		}
		sc.byLen[len(prefix)] = g
	}
	g.index[string(prefix)] = int32(len(g.entries))
	g.entries = append(g.entries, bankEntry{out: *o})
	sc.bytes += sz
	if sc.bytes > sc.peak {
		sc.peak = sc.bytes
	}
}

func (sc *specCache) take(prefix []uint8) (runOutcome, bool) {
	g := sc.byLen[len(prefix)]
	if g == nil {
		return runOutcome{}, false
	}
	i, ok := g.index[string(prefix)]
	if !ok || g.entries[i].taken {
		return runOutcome{}, false
	}
	g.entries[i].taken = true
	g.taken++
	sc.bytes -= entryBytes(len(prefix))
	return g.entries[i].out, true
}

// purgeLen drops every entry of one prefix length, counting the ones never
// taken as wasted speculation, and keeps the emptied generation for reuse.
func (sc *specCache) purgeLen(n int, wasted *uint64) {
	g := sc.byLen[n]
	if g == nil {
		return
	}
	left := len(g.entries) - g.taken
	*wasted += uint64(left)
	sc.bytes -= int64(left) * entryBytes(n)
	clear(g.index)
	g.entries, g.taken = g.entries[:0], 0
	delete(sc.byLen, n)
	sc.spare = append(sc.spare, g)
}

// drainAll purges every remaining generation (search over: bound hit or
// violation found).
func (sc *specCache) drainAll(wasted *uint64) {
	for n := range sc.byLen {
		sc.purgeLen(n, wasted)
	}
}
