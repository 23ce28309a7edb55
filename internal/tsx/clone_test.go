package tsx

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
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

// emptyReleased empties the list of released machines for one test and
// restores the list it held afterwards.
func emptyReleased(t *testing.T) {
	t.Helper()
	released.Lock()
	saved := released.list
	released.list = nil
	released.Unlock()
	t.Cleanup(func() {
		released.Lock()
		released.list = saved
		released.Unlock()
	})
}

// cellImage builds a machine of cfg holding one line-padded cell per
// simulated thread, each set to its index, the first labelled a lock line,
// and returns it with its checkpoint.
func cellImage(cfg Config) (*Machine, *Checkpoint, []mem.Addr) {
	m := NewMachine(cfg)
	var cells []mem.Addr
	m.RunOne(func(th *Thread) {
		for i := 0; i < cfg.Procs; i++ {
			cells = append(cells, th.AllocLines(1))
			th.Store(cells[i], uint64(i))
		}
		th.LabelLockLines(cells[0], 1, "cell-lock")
	})
	return m, m.Checkpoint(), cells
}

// TestReleasedForkMatchesFresh: FromCheckpoint over a released machine —
// whatever image it last held and however its last run ended — returns a
// machine holding exactly the checkpoint's image, whose next run matches a
// new machine's grant for grant.
func TestReleasedForkMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 3
	// A ring the next run does not fill, so its events show where the
	// ring's write position starts.
	cfg.TraceRing = 1024
	_, cp, cells := cellImage(cfg)
	newFork := func() *Machine {
		m := &Machine{}
		m.Reset(cp)
		return m
	}
	want := templateFingerprint(newFork())

	// dirty builds an image of c the way a template does and runs its
	// cells transactionally on the template machine, growing memory.
	dirty := func(c Config) *Machine {
		m, _, dcells := cellImage(c)
		m.Run(c.Procs, func(th *Thread) {
			for i := 0; i < 50; i++ {
				th.RTM(func() { th.Store(dcells[th.ID], th.Load(dcells[th.ID])+7) })
			}
			th.Store(th.AllocLines(3), 0xdead)
		})
		return m
	}
	larger, smaller := cfg, cfg
	larger.Procs, larger.MemWords, larger.TraceRing = 8, 4*cfg.MemWords, 64
	smaller.Procs, smaller.MemWords, smaller.TraceRing = 2, cfg.MemWords/16, 0
	cases := []struct {
		name string
		used func(t *testing.T) *Machine
	}{
		{"same image", func(*testing.T) *Machine { return dirty(cfg) }},
		{"larger image", func(*testing.T) *Machine { return dirty(larger) }},
		{"smaller image", func(*testing.T) *Machine { return dirty(smaller) }},
		// A machine stopped mid-transaction — line metadata torn, a label
		// and its prefix registered, hooks installed, memory grown past
		// the image.
		{"torn by a watchdog stop", func(t *testing.T) *Machine {
			m := newFork()
			m.SetLabelPrefix("torn/")
			grants := 0
			m.SetWatchdog(func(uint64) bool { grants++; return grants > 40 })
			m.SetInjector(&testInjector{})
			ths := m.Run(4, func(th *Thread) {
				th.LabelLockLines(cells[th.ID], 1, "torn")
				th.Memory().AllocLines(cfg.MemWords)
				for {
					th.RTM(func() {
						th.Store(cells[th.ID], th.Load(cells[th.ID])+7)
						th.Work(100)
					})
				}
			})
			if !m.Stopped() || !slices.ContainsFunc(ths, (*Thread).InTx) {
				t.Fatal("no thread stopped mid-transaction; the case is vacuous")
			}
			// The torn image itself round-trips, set line bits included.
			copied := &Machine{}
			copied.Reset(m.Checkpoint())
			if templateFingerprint(copied) != templateFingerprint(m) {
				t.Fatal("a torn machine's checkpoint did not restore its image")
			}
			return m
		}},
	}
	body := func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.RTM(func() { th.Store(cells[th.ID], th.Load(cells[th.ID])+1) })
		}
		th.Free(th.Alloc(5), 5)
	}
	// after runs body and digests the machine and the run's threads and
	// engine events.
	after := func(m *Machine) string {
		ths := m.Run(4, body)
		var clocks []uint64
		var stats []Stats
		for _, th := range ths {
			clocks, stats = append(clocks, th.Clock()), append(stats, th.Stats)
		}
		return fmt.Sprintf("%#x %v %v %v", templateFingerprint(m), clocks, stats, m.TraceEvents())
	}
	wantAfter := after(newFork())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			emptyReleased(t)
			used := c.used(t)
			used.Release()
			m := FromCheckpoint(cp)
			if m != used {
				t.Fatal("FromCheckpoint did not recycle the released machine")
			}
			if got := templateFingerprint(m); got != want {
				t.Fatalf("fingerprint %#016x, new machine's %#016x", got, want)
			}
			if !reflect.DeepEqual(m.Config(), cfg) || m.obs != nil || m.inj != nil || m.watchdog != nil || m.labelPrefix != "" {
				t.Fatal("recycled machine kept its last configuration, hooks or label prefix")
			}
			if got := after(m); got != wantAfter {
				t.Fatalf("run on the recycled machine:\n%s\nnew machine's run:\n%s", got, wantAfter)
			}
		})
	}
}

// TestReleasedListBounded: the list keeps at most GOMAXPROCS machines and
// drops the oldest, FromCheckpoint takes the newest, no slot of the list's
// backing array keeps a taken or dropped machine reachable, and misuse
// panics.
func TestReleasedListBounded(t *testing.T) {
	emptyReleased(t)
	cfg := DefaultConfig(2)
	cfg.MemWords = 1 << 9
	_, cp, _ := cellImage(cfg)
	n := runtime.GOMAXPROCS(0)
	var ms []*Machine
	for i := 0; i < n+2; i++ {
		ms = append(ms, FromCheckpoint(cp))
	}
	for _, m := range ms {
		m.Release()
	}
	if len(released.list) != n || released.list[0] != ms[2] {
		t.Fatalf("%d machines kept (oldest %p), want the newest %d", len(released.list), released.list[0], n)
	}
	pinned := func(m *Machine) bool {
		released.Lock()
		defer released.Unlock()
		return slices.Contains(released.list[len(released.list):cap(released.list)], m)
	}
	for _, dropped := range ms[:2] {
		if pinned(dropped) {
			t.Fatal("a dropped machine is still in the list's backing array")
		}
	}
	for i := len(ms) - 1; i >= 2; i-- {
		m := FromCheckpoint(cp)
		if m != ms[i] {
			t.Fatalf("FromCheckpoint took machine %d, want the newest, %d", slices.Index(ms, m), i)
		}
		if pinned(m) {
			t.Fatalf("taken machine %d is still in the list's backing array", i)
		}
	}
	if m := FromCheckpoint(cp); slices.Contains(ms, m) {
		t.Fatal("FromCheckpoint on an empty list returned a machine it handed out before")
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	m := ms[0]
	m.Release()
	mustPanic("a second Release", m.Release)
	m = FromCheckpoint(cp)
	mustPanic("Release while running", func() { m.RunOne(func(*Thread) { m.Release() }) })
}

// TestReleaseConcurrent: host workers forking and releasing at once never
// share a machine, and every fork holds the image and runs like a new
// machine (run under -race).
func TestReleaseConcurrent(t *testing.T) {
	emptyReleased(t)
	cfg := DefaultConfig(2)
	cfg.MemWords = 1 << 10
	_, cp, cells := cellImage(cfg)
	newFork := &Machine{}
	newFork.Reset(cp)
	want := templateFingerprint(newFork)
	body := func(th *Thread) {
		th.RTM(func() { th.Store(cells[th.ID], th.Load(cells[th.ID])+uint64(th.ID)+1) })
	}
	newFork.Run(2, body)
	wantAfter := templateFingerprint(newFork)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := FromCheckpoint(cp)
				if got := templateFingerprint(m); got != want {
					t.Errorf("fork fingerprint %#016x, want %#016x", got, want)
					return
				}
				m.Run(2, body)
				if got := templateFingerprint(m); got != wantAfter {
					t.Errorf("fork's run fingerprint %#016x, want %#016x", got, wantAfter)
					return
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
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
