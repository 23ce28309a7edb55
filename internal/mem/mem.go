// Package mem provides the simulated word-addressable memory that all
// benchmark data structures and locks live in.
//
// Memory is an array of 64-bit words grouped into 64-byte cache lines
// (8 words). Each line carries transactional metadata: bitmasks of the
// simulated hardware threads that currently hold the line in a speculative
// read or write set. The TSX engine (internal/tsx) maintains these masks;
// because all simulated execution is serialized through the scheduler token
// (internal/sim), the masks are exact — they never contain stale bits.
package mem

import (
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// LineWords is the number of 64-bit words per cache line (64-byte lines).
const LineWords = 8

// LineShift is log2(LineWords), for computing line indices from addresses.
const LineShift = 3

// Addr is a simulated memory address, expressed as a word index.
// Address 0 is never allocated and serves as the nil pointer.
type Addr uint32

// Nil is the null simulated address.
const Nil Addr = 0

// LineMeta is the transactional coherence metadata of one cache line.
type LineMeta struct {
	// Readers is a bitmask of proc IDs holding this line in a
	// speculative read set.
	Readers uint64
	// Writers is a bitmask of proc IDs holding this line in a
	// speculative write set.
	Writers uint64
}

// smallClasses bounds the dense size-class tables of a FreeTable: blocks of
// up to smallClasses-1 words (or lines) index a slice directly, the hot
// path for data-structure nodes; rarer large blocks fall back to a map.
const smallClasses = 128

// FreeTable holds per-size free lists of recycled allocations, split into
// word-granularity classes (Alloc/Free) and line-granularity classes
// (AllocLines/FreeLines). The two kinds never mix: a block keeps the
// alignment and padding of its original allocation for its whole life.
//
// The zero FreeTable is ready to use. It is shared by the global allocator
// in Memory and by the per-thread allocation caches in internal/tsx, both
// of which recycle blocks on every simulated node allocation — the reason
// the classes are dense slices rather than a map.
type FreeTable struct {
	word    [smallClasses][]Addr // word[n]: free blocks of exactly n words
	line    [smallClasses][]Addr // line[k]: free padded blocks of k lines
	bigWord map[int][]Addr       // n >= smallClasses (rare)
	bigLine map[int][]Addr       // k >= smallClasses (rare)
	// pushed has a bit per dense class (word n at bit n, line k at bit
	// smallClasses+k) that may hold blocks: set by Push, cleared by Drain
	// and copyFrom. A clear bit means the class is empty, so copyFrom
	// visits only the few classes a table ever used, not all 256.
	pushed [2 * smallClasses / 64]uint64
}

// lineClass converts a requested word count of a line-granular allocation
// into its class key: the padded size in whole lines.
func lineClass(n int) int { return (n + LineWords - 1) >> LineShift }

// Push records a free block of n words. lines tells which allocation kind
// (and therefore which class family) the block belongs to.
func (f *FreeTable) Push(n int, lines bool, a Addr) {
	if lines {
		k := lineClass(n)
		if k < smallClasses {
			f.line[k] = append(f.line[k], a)
			f.mark(smallClasses + k)
			return
		}
		if f.bigLine == nil {
			f.bigLine = make(map[int][]Addr)
		}
		f.bigLine[k] = append(f.bigLine[k], a)
		return
	}
	if n < smallClasses {
		f.word[n] = append(f.word[n], a)
		f.mark(n)
		return
	}
	if f.bigWord == nil {
		f.bigWord = make(map[int][]Addr)
	}
	f.bigWord[n] = append(f.bigWord[n], a)
}

// Pop takes a free block of the given size and kind, or returns Nil.
func (f *FreeTable) Pop(n int, lines bool) Addr {
	var fl []Addr
	if lines {
		k := lineClass(n)
		if k < smallClasses {
			fl = f.line[k]
			if len(fl) == 0 {
				return Nil
			}
			f.line[k] = fl[:len(fl)-1]
			return fl[len(fl)-1]
		}
		fl = f.bigLine[k]
		if len(fl) == 0 {
			return Nil
		}
		f.bigLine[k] = fl[:len(fl)-1]
		return fl[len(fl)-1]
	}
	if n < smallClasses {
		fl = f.word[n]
		if len(fl) == 0 {
			return Nil
		}
		f.word[n] = fl[:len(fl)-1]
		return fl[len(fl)-1]
	}
	fl = f.bigWord[n]
	if len(fl) == 0 {
		return Nil
	}
	f.bigWord[n] = fl[:len(fl)-1]
	return fl[len(fl)-1]
}

// Drain empties the table, invoking fn once per block with the size (in
// words) and kind it was pushed under.
func (f *FreeTable) Drain(fn func(n int, lines bool, a Addr)) {
	for n := range f.word {
		for _, a := range f.word[n] {
			fn(n, false, a)
		}
		f.word[n] = nil
	}
	for k := range f.line {
		for _, a := range f.line[k] {
			fn(k*LineWords, true, a)
		}
		f.line[k] = nil
	}
	for n, fl := range f.bigWord {
		for _, a := range fl {
			fn(n, false, a)
		}
	}
	f.bigWord = nil
	for k, fl := range f.bigLine {
		for _, a := range fl {
			fn(k*LineWords, true, a)
		}
	}
	f.bigLine = nil
	f.pushed = [len(f.pushed)]uint64{}
}

func (f *FreeTable) mark(c int) { f.pushed[c>>6] |= 1 << (c & 63) }

// class returns dense class c's free list: word classes first, then line
// classes, numbered as the pushed bits are.
func (f *FreeTable) class(c int) *[]Addr {
	if c < smallClasses {
		return &f.word[c]
	}
	return &f.line[c-smallClasses]
}

// copyFrom makes f an independent copy of src — the two never share a
// backing array, so either can be pushed and popped afterwards — reusing
// f's class slices. It is the one free-table copy: Snapshot copies into a
// new table, Restore into the memory's own, where a replay loop restoring
// the same image over and over allocates nothing once the slices have
// grown. Only classes either table may hold blocks in are visited.
func (f *FreeTable) copyFrom(src *FreeTable) {
	for i := range f.pushed {
		for b := f.pushed[i] | src.pushed[i]; b != 0; b &= b - 1 {
			c := i<<6 | bits.TrailingZeros64(b)
			dst := f.class(c)
			*dst = append((*dst)[:0], *src.class(c)...)
		}
	}
	f.pushed = src.pushed
	f.bigWord = copyBig(f.bigWord, src.bigWord)
	f.bigLine = copyBig(f.bigLine, src.bigLine)
}

// copyBig copies a big-class map into dst's storage. A class dst holds
// and src lacks is emptied in place rather than deleted, so its slice
// stays for the next copy.
func copyBig(dst, src map[int][]Addr) map[int][]Addr {
	for k, fl := range dst {
		if _, ok := src[k]; !ok {
			dst[k] = fl[:0]
		}
	}
	if dst == nil && len(src) > 0 {
		dst = make(map[int][]Addr, len(src))
	}
	for k, fl := range src {
		dst[k] = append(dst[k][:0], fl...)
	}
	return dst
}

// DebugChecks arms allocator sanity tracking for Memories created while it
// is set: every block remembers whether it came from Alloc or AllocLines
// and at what size, and a Free/FreeLines of the wrong kind or size — or of
// a block that is already free — panics instead of silently corrupting the
// free lists. Off by default: the tracking map would otherwise sit on the
// per-node allocation hot path.
var DebugChecks bool

// allocKind records how a block was allocated, for DebugChecks mode.
type allocKind struct {
	n     int
	lines bool
	free  bool
}

// Memory is a simulated physical memory. It grows on demand up to maxWords.
type Memory struct {
	words    []uint64
	lines    []LineMeta
	next     Addr
	maxWords int
	free     FreeTable
	owner    map[Addr]allocKind // nil unless DebugChecks was set at New

	// Placement state (see placement.go). All of it is captured by
	// Snapshot, so a checkpoint-forked memory continues the exact layout
	// of its image: same policy, same chunk cursors, same color rotation,
	// same shadow position.
	layout   Layout
	cursors  map[int]cursor // per-color / per-arena-owner chunk cursors
	colorSeq int            // Colored's round-robin color assignment
	shadow   Addr           // packed-shadow bump cursor (PadLines plans)
}

// DefaultMaxWords bounds memory growth: 1<<26 words = 512 MB simulated.
const DefaultMaxWords = 1 << 26

// New creates a memory with an initial capacity of initWords words,
// growable up to DefaultMaxWords.
func New(initWords int) *Memory {
	if initWords < 4*LineWords {
		initWords = 4 * LineWords
	}
	initWords = roundUpLine(initWords)
	m := &Memory{
		words:    make([]uint64, initWords),
		lines:    make([]LineMeta, initWords/LineWords),
		next:     LineWords, // keep line 0 (and Addr 0 == Nil) unallocated
		maxWords: DefaultMaxWords,
		shadow:   LineWords,
	}
	if DebugChecks {
		m.owner = make(map[Addr]allocKind)
	}
	return m
}

func roundUpLine(n int) int {
	return (n + LineWords - 1) &^ (LineWords - 1)
}

// LineOf returns the cache-line index containing address a.
func LineOf(a Addr) int { return int(a >> LineShift) }

// LineAddr returns the first address of line index l.
func LineAddr(l int) Addr { return Addr(l << LineShift) }

// Line returns the metadata of the line containing address a.
func (m *Memory) Line(a Addr) *LineMeta { return &m.lines[a>>LineShift] }

// LineByIndex returns the metadata of line index l.
func (m *Memory) LineByIndex(l int) *LineMeta { return &m.lines[l] }

// NumLines returns the current number of lines backed by this memory.
func (m *Memory) NumLines() int { return len(m.lines) }

// Read returns the committed value of the word at address a. The TSX engine
// is responsible for consulting speculative write buffers first.
func (m *Memory) Read(a Addr) uint64 { return m.words[a] }

// Write sets the committed value of the word at address a.
func (m *Memory) Write(a Addr, v uint64) { m.words[a] = v }

// NoteAlloc marks a block live in DebugChecks mode. The TSX engine's
// thread-local allocation caches call it when they recycle a block without
// going through Alloc/AllocLines; without DebugChecks it is a no-op.
func (m *Memory) NoteAlloc(a Addr, n int, lines bool) {
	if m.owner == nil {
		return
	}
	m.owner[a] = allocKind{n: n, lines: lines}
}

// CheckFree validates a free against the block's allocation record in
// DebugChecks mode: kind and size must match, and the block must be live.
// The TSX engine calls it from its thread-cache free path; Free/FreeLines
// call it internally. Without DebugChecks it is a no-op.
func (m *Memory) CheckFree(a Addr, n int, lines bool) {
	if m.owner == nil {
		return
	}
	k, ok := m.owner[a]
	if !ok {
		panic(fmt.Sprintf("mem: free of never-allocated address %d (n=%d, lines=%v)", a, n, lines))
	}
	if k.free {
		panic(fmt.Sprintf("mem: double free of address %d (n=%d, lines=%v)", a, n, lines))
	}
	if k.lines != lines {
		panic(fmt.Sprintf("mem: free kind mismatch at address %d: allocated lines=%v, freed lines=%v", a, k.lines, lines))
	}
	sameSize := k.n == n
	if lines {
		sameSize = lineClass(k.n) == lineClass(n)
	}
	if !sameSize {
		panic(fmt.Sprintf("mem: free size mismatch at address %d: allocated %d words, freed %d", a, k.n, n))
	}
	k.free = true
	m.owner[a] = k
}

// Alloc allocates n contiguous words and returns the address of the first.
// Fresh blocks are positioned by the configured placement policy (the zero
// Layout packs them: word aligned, never spanning more lines than
// necessary); use AllocLines when a structure must own whole cache lines
// under every policy.
//
// Reused memory is NOT zeroed here: clearing must go through the TSX
// engine's store path (tsx.Thread.Alloc does this) so that a recycled line
// still held in another transaction's read set triggers a proper conflict.
func (m *Memory) Alloc(n int) Addr { return m.AllocOwned(0, n) }

// AllocOwned is Alloc with the allocating owner identified — the TSX
// engine passes the simulated thread ID. Only the Arena placement reads
// it, to pick the owner's private chunk; every other policy ignores it.
func (m *Memory) AllocOwned(owner, n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", n))
	}
	if a := m.free.Pop(n, false); a != Nil {
		m.NoteAlloc(a, n, false)
		return a
	}
	a := m.place(owner, n)
	m.NoteAlloc(a, n, false)
	return a
}

// AllocLines allocates n words starting on a cache-line boundary and pads
// the allocation to whole lines, so the object shares its lines with
// nothing else. Locks and other contended words use this to avoid
// simulated false sharing; placement policies leave it unchanged (the
// object already owns its lines under any of them).
func (m *Memory) AllocLines(n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: AllocLines(%d)", n))
	}
	if a := m.free.Pop(n, true); a != Nil {
		m.NoteAlloc(a, n, true)
		return a
	}
	if m.layout.PadLines != nil {
		m.shadowPlaceLines(n)
	}
	a := m.bumpLines(n)
	m.NoteAlloc(a, n, true)
	return a
}

// Free returns an allocation obtained from Alloc(n) to the allocator.
// In DebugChecks mode, freeing an AllocLines block here (or vice versa)
// panics — the two kinds have different padding and must never mix.
func (m *Memory) Free(a Addr, n int) {
	m.CheckFree(a, n, false)
	m.free.Push(n, false, a)
}

// FreeLines returns an allocation obtained from AllocLines(n).
func (m *Memory) FreeLines(a Addr, n int) {
	m.CheckFree(a, n, true)
	m.free.Push(n, true, a)
}

// Recycle returns a block to the global free lists without the DebugChecks
// live-to-free transition: the TSX engine's thread-cache flush uses it for
// blocks whose Free already ran the check.
func (m *Memory) Recycle(a Addr, n int, lines bool) {
	m.free.Push(n, lines, a)
}

// WordsInUse reports the high-water mark of allocated words.
func (m *Memory) WordsInUse() int { return int(m.next) }

func (m *Memory) grow(need int) {
	if need <= len(m.words) {
		return
	}
	if need > m.maxWords {
		panic(fmt.Sprintf("mem: out of simulated memory (need %d words, max %d)", need, m.maxWords))
	}
	newLen := len(m.words)
	for newLen < need {
		newLen *= 2
	}
	if newLen > m.maxWords {
		newLen = m.maxWords
	}
	words := make([]uint64, newLen)
	copy(words, m.words)
	m.words = words
	lines := make([]LineMeta, newLen/LineWords)
	copy(lines, m.lines)
	m.lines = lines
}

// Snapshot is an immutable deep copy of a Memory's complete state — word
// array, line metadata, bump pointer, and free lists. The experiment pool
// snapshots a populated workload once and builds an independent Memory per
// concurrent point from it (via Restore or FromSnapshot) instead of
// repopulating, which dominates point cost for large structures.
type Snapshot struct {
	words    []uint64
	lines    []LineMeta
	next     Addr
	maxWords int
	free     FreeTable
	owner    map[Addr]allocKind

	layout   Layout
	cursors  map[int]cursor
	colorSeq int
	shadow   Addr
}

// Words exposes the snapshot's word-array copy (tests compare snapshots to
// detect unwanted mutation).
func (s *Snapshot) Words() []uint64 { return s.words }

// Snapshot captures the memory's current state. The caller must ensure no
// simulated threads are running (line metadata must be quiescent).
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		words:    slices.Clone(m.words),
		lines:    slices.Clone(m.lines),
		next:     m.next,
		maxWords: m.maxWords,
		owner:    maps.Clone(m.owner),
		layout:   m.layout.clone(),
		cursors:  maps.Clone(m.cursors),
		colorSeq: m.colorSeq,
		shadow:   m.shadow,
	}
	s.free.copyFrom(&m.free)
	return s
}

// Restore resets m to a previously captured snapshot, in m's own storage:
// the word and line arrays and the free lists are overwritten, not
// reallocated, once they are large enough. The snapshot is not consumed:
// it can seed any number of memories.
func (m *Memory) Restore(s *Snapshot) {
	m.words = append(m.words[:0], s.words...)
	m.lines = append(m.lines[:0], s.lines...)
	m.next = s.next
	m.maxWords = s.maxWords
	m.free.copyFrom(&s.free)
	m.owner = maps.Clone(s.owner)
	m.layout = s.layout.clone()
	m.cursors = maps.Clone(s.cursors)
	m.colorSeq = s.colorSeq
	m.shadow = s.shadow
}

// FromSnapshot builds a new independent Memory from a snapshot, in the
// arrays of a released memory of the same size when one is spare.
func FromSnapshot(s *Snapshot) *Memory {
	m := takeSpare(len(s.words))
	m.Restore(s)
	return m
}

// Release hands m's arrays to a later FromSnapshot of an image of the same
// size and empties m, which must not be used again. A sweep releasing each
// point's fork allocates arrays per host worker, not per point, so its peak
// heap does not depend on when the garbage collector runs.
func (m *Memory) Release() {
	spares.Lock()
	defer spares.Unlock()
	if over := len(spares.list) + 1 - runtime.GOMAXPROCS(0); over > 0 {
		spares.list = slices.Delete(spares.list, 0, over)
	}
	spares.list = append(spares.list, &Memory{words: m.words, lines: m.lines})
	*m = Memory{}
}

// spares holds released memories' arrays, oldest first, one per host worker.
var spares struct {
	sync.Mutex
	list []*Memory
}

// takeSpare removes and returns the newest released memory of n words, or
// a new empty Memory when there is none.
func takeSpare(n int) *Memory {
	spares.Lock()
	defer spares.Unlock()
	for i := len(spares.list) - 1; i >= 0; i-- {
		if m := spares.list[i]; len(m.words) == n {
			spares.list = slices.Delete(spares.list, i, i+1)
			return m
		}
	}
	return &Memory{}
}
