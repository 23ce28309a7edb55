package mem

import (
	"fmt"
	"maps"
)

// Placement selects where the allocator puts FRESH word-granular
// allocations (Alloc/AllocOwned) relative to cache lines. Placement is an
// experimental axis: on real TSX hardware, allocator decisions — same-line
// co-location of independently-touched objects, cache-index conflicts
// under imprecise read-set tracking — dominate abort rates as much as the
// workload itself (Dice et al., "The Influence of Malloc Placement on TSX
// Hardware Transactional Memory").
//
// Only fresh bump allocations move; recycled blocks keep the address (and
// therefore the shape) of their original allocation for their whole life,
// exactly like the word/line split of FreeTable. Because every fresh block
// of one size under one policy has the same shape, free-list reuse stays
// shape-consistent. AllocLines is unaffected: contended objects already
// own whole lines under every policy.
type Placement uint8

const (
	// Packed is the baseline: blocks are word-aligned and tightly bumped,
	// never straddling a line boundary when they fit in one line — so
	// sub-line objects routinely share lines, the false-sharing source the
	// other policies attack.
	Packed Placement = iota
	// Padded places every fresh block on its own cache line(s), padded to
	// whole lines: no two objects share a line, trading memory for zero
	// placement-induced false sharing.
	Padded
	// Colored assigns each fresh block a color in round-robin order and
	// packs same-colored blocks into per-color chunks, spreading
	// consecutively-allocated hot objects across distinct line-index
	// strides (cache-set coloring). Objects still share lines within a
	// color, so on this simulator — whose conflict tracking is exact
	// per-line, with no set-associativity limit — Colored behaves like
	// Packed for conflicts; the policy exists to measure exactly that
	// contrast with real index-limited hardware.
	Colored
	// Arena gives each owner (the TSX engine passes the allocating thread
	// ID) private chunks carved from the global bump: blocks are packed
	// within an owner's arena, so concurrent allocating threads never
	// interleave fresh objects onto a shared line.
	Arena

	numPlacements
)

var placementNames = [numPlacements]string{"packed", "padded", "colored", "arena"}

// String returns the policy's stable lower-case name.
func (p Placement) String() string {
	if p < numPlacements {
		return placementNames[p]
	}
	return fmt.Sprintf("placement(%d)", uint8(p))
}

// Valid reports whether p names a known policy.
func (p Placement) Valid() bool { return p < numPlacements }

// PlacementByName resolves a policy by its String name.
func PlacementByName(name string) (Placement, bool) {
	for i, n := range placementNames {
		if n == name {
			return Placement(i), true
		}
	}
	return Packed, false
}

// Placements enumerates every policy in declaration order.
func Placements() []Placement {
	return []Placement{Packed, Padded, Colored, Arena}
}

// Layout defaults.
const (
	// DefaultColors is the Colored policy's color-class count: 8 colors ×
	// 64-byte lines = one 512-byte stride, a typical L1-set period.
	DefaultColors = 8
	// DefaultChunkLines sizes the chunks Colored/Arena carve from the
	// global bump (32 lines = 2 KB simulated).
	DefaultChunkLines = 32
)

// Layout is the allocator's placement configuration. The zero value is the
// packed baseline, byte-identical to the pre-placement allocator. It is
// part of the machine configuration (tsx.Config.Layout) and of every
// memory snapshot, so checkpoint-forked images preserve the policy and the
// positions of its cursors.
type Layout struct {
	// Placement selects the fresh-allocation policy.
	Placement Placement
	// Colors is Colored's color-class count (0 selects DefaultColors).
	Colors int
	// ChunkLines is the chunk size, in lines, that Colored and Arena carve
	// from the global bump (0 selects DefaultChunkLines).
	ChunkLines int
	// PadLines is the auto-pad plan, consulted by Packed only: a fresh
	// allocation whose would-have-been packed address (tracked by a shadow
	// cursor advancing under pure packed rules) lands on a planned line is
	// diverted to padded placement instead. Built from a profiling burst's
	// conflict heatmap (harness.AutoPad); nil means no plan. The map is
	// read-only once the Layout is in use.
	PadLines map[int]bool
}

func (l Layout) colors() int {
	if l.Colors > 0 {
		return l.Colors
	}
	return DefaultColors
}

func (l Layout) chunkLines() int {
	if l.ChunkLines > 0 {
		return l.ChunkLines
	}
	return DefaultChunkLines
}

// clone deep-copies the layout (the plan map must not be shared between a
// snapshot and a live allocator).
func (l Layout) clone() Layout {
	l.PadLines = maps.Clone(l.PadLines)
	return l
}

// WithPadLines returns a copy of the layout carrying the given auto-pad
// plan (the map is cloned; nil clears the plan).
func (l Layout) WithPadLines(plan map[int]bool) Layout {
	l.PadLines = maps.Clone(plan)
	return l
}

// cursor is one chunked bump region (a color's or an arena owner's).
type cursor struct{ next, end Addr }

// NewWithLayout creates a memory with an initial capacity of initWords
// words and the given placement layout. New(initWords) is the packed
// shorthand.
func NewWithLayout(initWords int, l Layout) *Memory {
	if !l.Placement.Valid() {
		panic(fmt.Sprintf("mem: unknown placement %d", uint8(l.Placement)))
	}
	m := New(initWords)
	m.layout = l.clone()
	m.shadow = m.next
	return m
}

// Layout returns the memory's placement layout. The PadLines map is shared
// and must be treated as read-only.
func (m *Memory) Layout() Layout { return m.layout }

// SetPlacement switches the placement policy applied to subsequent fresh
// allocations, returning the previous policy. It exists for
// construction-time bracketing — building one structure (a sharded store)
// under a different policy than the machine-wide one — and is part of the
// allocator state a snapshot captures.
func (m *Memory) SetPlacement(p Placement) (prev Placement) {
	if !p.Valid() {
		panic(fmt.Sprintf("mem: unknown placement %d", uint8(p)))
	}
	prev = m.layout.Placement
	m.layout.Placement = p
	return prev
}

// place positions one fresh word-granular block of n words under the
// current policy. Free-list pops never reach here.
func (m *Memory) place(owner, n int) Addr {
	switch m.layout.Placement {
	case Padded:
		return m.bumpLines(n)
	case Colored:
		color := m.colorSeq % m.layout.colors()
		m.colorSeq++
		return m.chunkAlloc(colorKey(color), n)
	case Arena:
		return m.chunkAlloc(owner, n)
	default: // Packed, possibly with an auto-pad plan.
		if m.layout.PadLines != nil && m.layout.PadLines[LineOf(m.shadowPlace(n))] {
			return m.bumpLines(n)
		}
		return m.bumpPacked(n)
	}
}

// colorKey maps a color index into the cursor key space without colliding
// with arena owners (thread IDs, which are non-negative).
func colorKey(color int) int { return -1 - color }

// bumpPacked advances the global bump under the packed rules: word
// aligned, but a sub-line object that would straddle a line boundary is
// pushed to the next line.
func (m *Memory) bumpPacked(n int) Addr {
	if n <= LineWords {
		if off := int(m.next) % LineWords; off+n > LineWords {
			m.next += Addr(LineWords - off)
		}
	}
	a := m.next
	m.grow(int(a) + n)
	m.next = a + Addr(n)
	return a
}

// bumpLines advances the global bump by a line-aligned block padded to
// whole lines.
func (m *Memory) bumpLines(n int) Addr {
	padded := roundUpLine(n)
	m.next = Addr(roundUpLine(int(m.next)))
	a := m.next
	m.grow(int(a) + padded)
	m.next = a + Addr(padded)
	return a
}

// chunkAlloc packs a fresh block into the keyed chunk (carving a new chunk
// from the global bump when the current one cannot fit it), applying the
// same no-straddle rule as the packed bump.
func (m *Memory) chunkAlloc(key, n int) Addr {
	if m.cursors == nil {
		m.cursors = make(map[int]cursor)
	}
	c := m.cursors[key]
	if n <= LineWords {
		if off := int(c.next) % LineWords; off+n > LineWords {
			c.next += Addr(LineWords - off)
		}
	}
	if c.end == 0 || c.next+Addr(n) > c.end {
		lines := m.layout.chunkLines()
		if k := lineClass(n); k > lines {
			lines = k
		}
		words := lines * LineWords
		start := Addr(roundUpLine(int(m.next)))
		m.grow(int(start) + words)
		m.next = start + Addr(words)
		c = cursor{next: start, end: start + Addr(words)}
	}
	a := c.next
	c.next = a + Addr(n)
	m.cursors[key] = c
	return a
}

// shadowPlace advances the packed-shadow cursor by one fresh allocation
// under pure packed rules and returns the address the block would have had
// with no plan in force. As long as the allocation/free sequence matches
// the profiled packed run — auto-pad replays the same deterministic
// populate — shadow addresses equal that run's real addresses, because
// diversion changes neither block sizes nor free-list class membership.
func (m *Memory) shadowPlace(n int) Addr {
	if n <= LineWords {
		if off := int(m.shadow) % LineWords; off+n > LineWords {
			m.shadow += Addr(LineWords - off)
		}
	}
	a := m.shadow
	m.shadow += Addr(n)
	return a
}

// shadowPlaceLines mirrors a fresh AllocLines on the shadow cursor.
func (m *Memory) shadowPlaceLines(n int) {
	m.shadow = Addr(roundUpLine(int(m.shadow)) + roundUpLine(n))
}
