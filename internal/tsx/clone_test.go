package tsx

import (
	"slices"
	"testing"

	"hle/internal/mem"
)

// TestCloneIndependence: a cloned machine sees the template's populated
// memory but diverges independently afterwards.
func TestCloneIndependence(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Seed = 5
	tmpl := NewMachine(cfg)
	var cell mem.Addr
	tmpl.RunOne(func(th *Thread) {
		cell = th.AllocLines(1)
		th.Store(cell, 41)
	})

	c1, c2 := FromCheckpoint(tmpl.Checkpoint()), FromCheckpoint(tmpl.Checkpoint())
	if c1.Mem.Read(cell) != 41 || c2.Mem.Read(cell) != 41 {
		t.Fatal("clone did not copy populated memory")
	}

	c1.RunOne(func(th *Thread) { th.Store(cell, 100) })
	if c2.Mem.Read(cell) != 41 || tmpl.Mem.Read(cell) != 41 {
		t.Fatal("clone writes leaked into template or sibling")
	}

	// Allocator state is cloned too: both clones bump-allocate the same
	// next address, independently.
	var a1, a2 mem.Addr
	c1.RunOne(func(th *Thread) { a1 = th.Alloc(4) })
	c2.RunOne(func(th *Thread) { a2 = th.Alloc(4) })
	if a1 != a2 {
		t.Fatalf("clone allocator state diverged: %d vs %d", a1, a2)
	}
}

// templateFingerprint folds a machine's complete cloneable image into one
// FNV-1a value: every memory word, every line's sharer metadata, the bump
// pointer, and the symbolic line registry. Any byte a clone could corrupt
// in its template shows up here.
func templateFingerprint(m *Machine) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(m.Mem.WordsInUse()))
	for a := 0; a < m.Mem.WordsInUse(); a++ {
		mix(m.Mem.Read(mem.Addr(a)))
	}
	for l := 0; l < m.Mem.NumLines(); l++ {
		meta := m.Mem.LineByIndex(l)
		mix(meta.Readers)
		mix(meta.Writers)
	}
	for l := 0; l < m.Mem.NumLines(); l++ {
		if _, locked := m.lockLines[l]; locked {
			mix(uint64(l))
		}
		for _, c := range m.lineLabels[l] {
			mix(uint64(c))
		}
	}
	return h
}

// TestCloneMutationLeavesTemplateUntouched: however aggressively a clone is
// driven — transactional and plain writes, fresh allocations, new line
// labels, a reseed — the template's complete image stays byte-identical.
// This is the regression guard for the experiment pool, which builds one
// populated template and hands clones to concurrent points.
func TestCloneMutationLeavesTemplateUntouched(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 11
	tmpl := NewMachine(cfg)
	var cells []mem.Addr
	tmpl.RunOne(func(th *Thread) {
		for i := 0; i < 8; i++ {
			c := th.AllocLines(1)
			th.Store(c, uint64(i)*3)
			cells = append(cells, c)
		}
		th.LabelLockLines(cells[0], 1, "template-lock")
	})
	before := templateFingerprint(tmpl)

	c := FromCheckpoint(tmpl.Checkpoint())
	c.Reseed(999)
	c.Run(4, func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.RTM(func() {
				v := th.Load(cells[th.ID])
				th.Store(cells[th.ID], v+1)
			})
		}
		th.Store(cells[7], ^uint64(0))
		extra := th.AllocLines(2)
		th.Store(extra, 0xdead)
		th.LabelLockLines(extra, 1, "clone-only-label")
	})

	if after := templateFingerprint(tmpl); after != before {
		t.Fatalf("template fingerprint changed after clone mutation: %#016x -> %#016x", before, after)
	}
	if cloneFp := templateFingerprint(c); cloneFp == before {
		t.Fatal("clone fingerprint identical to template after mutation (fingerprint is blind)")
	}
}

// TestCloneDeterminism: a clone re-running the template's workload with the
// same seed reproduces it exactly; a reseeded clone diverges.
func TestCloneDeterminism(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 9
	tmpl := NewMachine(cfg)
	var cells []mem.Addr
	tmpl.RunOne(func(th *Thread) {
		for i := 0; i < 4; i++ {
			cells = append(cells, th.AllocLines(1))
		}
	})

	body := func(th *Thread) {
		c := cells[th.ID]
		for i := 0; i < 200; i++ {
			th.RTM(func() {
				v := th.Load(c)
				th.Store(c, v+uint64(th.Rand().Intn(3)))
			})
		}
	}
	run := func(m *Machine) (vals [4]uint64, committed uint64) {
		ths := m.Run(4, body)
		for i, c := range cells {
			vals[i] = m.Mem.Read(c)
		}
		for _, th := range ths {
			committed += th.Stats.Committed
		}
		return
	}

	c1, c2, c3 := FromCheckpoint(tmpl.Checkpoint()), FromCheckpoint(tmpl.Checkpoint()), FromCheckpoint(tmpl.Checkpoint())
	v1, n1 := run(c1)
	v2, n2 := run(c2)
	if v1 != v2 || n1 != n2 {
		t.Fatalf("identical clones diverged: %v/%d vs %v/%d", v1, n1, v2, n2)
	}
	c3.Reseed(12345)
	v3, _ := run(c3)
	if v1 == v3 {
		t.Fatal("reseeded clone reproduced the original streams exactly (seed ignored?)")
	}
}

// TestReleasedForkMatchesFresh: a machine forked into the memory arrays of
// a released, mutated fork holds exactly the checkpoint's image.
func TestReleasedForkMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 3
	tmpl := NewMachine(cfg)
	var cells []mem.Addr
	tmpl.RunOne(func(th *Thread) {
		for i := 0; i < 4; i++ {
			cells = append(cells, th.AllocLines(1))
			th.Store(cells[i], uint64(i))
		}
	})
	cp := tmpl.Checkpoint()
	want := templateFingerprint(FromCheckpoint(cp))

	used := FromCheckpoint(cp)
	used.Run(4, func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.RTM(func() { th.Store(cells[th.ID], th.Load(cells[th.ID])+7) })
		}
		th.Store(th.AllocLines(3), 0xdead)
	})
	used.Mem.Release()
	if got := templateFingerprint(FromCheckpoint(cp)); got != want {
		t.Fatalf("fork over released arrays: fingerprint %#016x, fresh fork %#016x", got, want)
	}

	// Reset in place: a machine stopped mid-transaction — line metadata
	// torn, a label and its prefix registered, memory grown past the
	// image — holds exactly the checkpoint's image after Reset(cp), and
	// its next run matches a fresh fork's.
	torn := FromCheckpoint(cp)
	torn.SetLabelPrefix("torn/")
	grants := 0
	torn.SetWatchdog(func(uint64) bool { grants++; return grants > 40 })
	ths := torn.Run(4, func(th *Thread) {
		th.LabelLockLines(cells[th.ID], 1, "torn")
		th.Memory().AllocLines(cfg.MemWords)
		for {
			th.RTM(func() {
				th.Store(cells[th.ID], th.Load(cells[th.ID])+7)
				th.Work(100)
			})
		}
	})
	if !torn.Stopped() || !slices.ContainsFunc(ths, (*Thread).InTx) {
		t.Fatal("no thread stopped mid-transaction; the Reset case is vacuous")
	}
	torn.Reset(cp)
	if got := templateFingerprint(torn); got != want {
		t.Fatalf("Reset after a torn run: fingerprint %#016x, fresh fork %#016x", got, want)
	}
	body := func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.RTM(func() { th.Store(cells[th.ID], th.Load(cells[th.ID])+1) })
		}
	}
	fresh := FromCheckpoint(cp)
	fresh.Run(4, body)
	torn.Run(4, body)
	if got, want := templateFingerprint(torn), templateFingerprint(fresh); got != want {
		t.Fatalf("run after Reset: fingerprint %#016x, fresh fork's run %#016x", got, want)
	}
}

// TestResetAllocatesNothing: resetting an explore-sized machine (small
// memory, labelled lock lines, non-empty word, line and big free classes)
// in place allocates nothing after the first call, however the machine
// was dirtied since.
func TestResetAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemWords = 1 << 9
	tmpl := NewMachine(cfg)
	var lock mem.Addr
	tmpl.RunOne(func(th *Thread) {
		lock = th.AllocLines(1)
		th.LabelLockLines(lock, 1, "lock")
		th.Free(th.Alloc(3), 3)
		th.FreeLines(th.AllocLines(2*mem.LineWords), 2*mem.LineWords)
		big := 130 * mem.LineWords
		th.FreeLines(th.AllocLines(big), big)
	})
	cp := tmpl.Checkpoint()

	m := FromCheckpoint(cp)
	m.Run(2, func(th *Thread) {
		th.XAcquireSwap(lock, 1)
		th.Store(th.Alloc(5), 1)
		th.XReleaseStore(lock, 0)
		th.Free(th.Alloc(7), 7)
	})
	m.Reset(cp)
	dirty := func() {
		m.Mem.Write(lock, 99)
		m.Mem.Free(m.Mem.Alloc(4), 4)
		m.Mem.FreeLines(m.Mem.AllocLines(3*mem.LineWords), 3*mem.LineWords)
		m.Mem.Free(m.Mem.Alloc(200), 200)
		m.labelLines(lock+mem.LineWords, 1, "extra", true)
	}
	if n := testing.AllocsPerRun(50, func() { dirty(); m.Reset(cp) }); n != 0 {
		t.Fatalf("Reset allocated %.1f times per call after the first", n)
	}
	if m.LineLabel(mem.LineOf(lock)+1) != "" || m.LineLabel(mem.LineOf(lock)) != "lock" {
		t.Fatal("Reset did not restore the checkpoint's line labels")
	}
}
