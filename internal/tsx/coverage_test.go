package tsx

import (
	"strings"
	"testing"

	"hle/internal/mem"
)

// TestXAcquireFetchAddPaths exercises all four execution paths of the
// ticket lock's acquire instruction: fresh elision, suppressed re-issue,
// prefix-ignored inside RTM, and nested-ideal elision.
func TestXAcquireFetchAddPaths(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		next := th.AllocLines(2)

		// Fresh elision: returns the current counter, illusion +1.
		th.HLERegion(func() {
			if got := th.XAcquireFetchAdd(next, 1); got != 0 {
				t.Fatalf("elided F&A observed %d", got)
			}
			if th.Load(next) != 1 {
				t.Error("illusion value wrong")
			}
			if !th.XReleaseCAS(next, 1, 0) {
				t.Error("restore CAS failed")
			}
		})
		if th.Load(next) != 0 {
			t.Error("counter disturbed by elided run")
		}

		// Suppressed re-issue: really adds.
		th.elisionSuppressed = true
		if got := th.XAcquireFetchAdd(next, 1); got != 0 {
			t.Fatalf("re-issued F&A observed %d", got)
		}
		if th.InTx() || th.Load(next) != 1 {
			t.Fatal("re-issued F&A did not execute for real")
		}
		th.Store(next, 0)

		// Inside RTM without nesting support: plain transactional F&A.
		ok, _ := th.RTM(func() {
			if got := th.XAcquireFetchAdd(next, 5); got != 0 {
				t.Errorf("tx F&A observed %d", got)
			}
			if th.InElision() {
				t.Error("elision started inside RTM without nesting support")
			}
		})
		if !ok || th.Load(next) != 5 {
			t.Fatalf("transactional F&A lost: %d", th.Load(next))
		}
	})

	// Nested-ideal elision.
	cfg := DefaultConfig(1)
	cfg.SpuriousPerAccess = 0
	m2 := NewMachine(cfg)
	m2.RunOne(func(th *Thread) {
		th.SetNestedElision(true)
		next := th.AllocLines(2)
		ok, _ := th.RTM(func() {
			if got := th.XAcquireFetchAdd(next, 1); got != 0 {
				t.Errorf("nested F&A observed %d", got)
			}
			if !th.InElision() {
				t.Error("nested elision did not start")
			}
			if !th.XReleaseCAS(next, 1, 0) {
				t.Error("nested restore CAS failed")
			}
		})
		if !ok || th.Load(next) != 0 {
			t.Fatal("nested-ideal elision disturbed the counter")
		}
	})
}

// TestNonTxAtomics covers the plain (outside-transaction) RMW paths.
func TestNonTxAtomics(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(1)
		if th.CAS(a, 1, 2) {
			t.Fatal("CAS with wrong expectation succeeded")
		}
		if !th.CAS(a, 0, 7) || th.Load(a) != 7 {
			t.Fatal("CAS failed")
		}
		if th.Swap(a, 9) != 7 || th.Load(a) != 9 {
			t.Fatal("Swap wrong")
		}
		if th.FetchAdd(a, 3) != 9 || th.Load(a) != 12 {
			t.Fatal("FetchAdd wrong")
		}
	})
}

// TestFreeLinesRoundTrip covers padded-allocation recycling through the
// thread cache and the global list.
func TestFreeLinesRoundTrip(t *testing.T) {
	m := newTestMachine(1, 1)
	m.RunOne(func(th *Thread) {
		a := th.AllocLines(3)
		th.Store(a, 5)
		th.FreeLines(a, 3)
		b := th.AllocLines(3) // thread cache hit
		if b != a {
			t.Fatalf("padded block not recycled: %d vs %d", b, a)
		}
		if th.Load(b) != 0 {
			t.Fatal("recycled block not re-zeroed")
		}
		// Transactional FreeLines rolls back on abort.
		th.RTM(func() {
			th.FreeLines(b, 3)
			th.Abort(1)
		})
		c := th.AllocLines(3)
		if c == b {
			t.Fatal("aborted FreeLines was applied")
		}
	})
}

// TestCauseStrings pins every abort cause's name.
func TestCauseStrings(t *testing.T) {
	want := map[Cause]string{
		CauseNone:          "none",
		CauseConflict:      "conflict",
		CauseCapacityWrite: "capacity-write",
		CauseCapacityRead:  "capacity-read",
		CauseExplicit:      "explicit",
		CauseSpurious:      "spurious",
		CausePause:         "pause",
		CauseHLERestore:    "hle-restore",
		CauseNested:        "nested",
		Cause(200):         "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Cause(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestStatsFootprintMeans covers the workload-characterization helpers.
func TestStatsFootprintMeans(t *testing.T) {
	m := newTestMachine(1, 1)
	ths := m.Run(1, func(th *Thread) {
		arr := th.AllocLines(4 * mem.LineWords)
		for i := 0; i < 10; i++ {
			th.RTM(func() {
				for l := 0; l < 3; l++ {
					_ = th.Load(arr + mem.Addr(l*mem.LineWords))
				}
				th.Store(arr, 1)
			})
		}
	})
	s := ths[0].Stats
	if s.MeanReadLines() != 3 {
		t.Errorf("MeanReadLines = %v, want 3", s.MeanReadLines())
	}
	if s.MeanWriteLines() != 1 {
		t.Errorf("MeanWriteLines = %v, want 1", s.MeanWriteLines())
	}
	if s.MeanAccesses() != 4 {
		t.Errorf("MeanAccesses = %v, want 4", s.MeanAccesses())
	}
	var zero Stats
	if zero.MeanReadLines() != 0 || zero.MeanWriteLines() != 0 || zero.MeanAccesses() != 0 {
		t.Error("zero stats should derive zero means")
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.CommittedAccesses != 2*s.CommittedAccesses {
		t.Error("Add did not accumulate footprints")
	}
}

// TestMachineAccessorsAndDefaults covers construction paths.
func TestMachineAccessorsAndDefaults(t *testing.T) {
	m := NewMachine(Config{}) // everything defaulted
	cfg := m.Config()
	if cfg.Procs != 8 || cfg.WriteSetLines != 512 || cfg.Costs.Load == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	m.RunOne(func(th *Thread) {
		if th.Machine() != m {
			t.Error("Machine accessor wrong")
		}
		if th.Memory() != m.Mem {
			t.Error("Memory accessor wrong")
		}
	})

	defer func() {
		if recover() == nil {
			t.Error("expected panic for >64 procs")
		}
	}()
	NewMachine(Config{Procs: 100})
}

// TestStatusString is a smoke test that abort causes render in messages.
func TestStatusRendering(t *testing.T) {
	var names []string
	for c := CauseNone; c <= CauseNested; c++ {
		names = append(names, c.String())
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "conflict") || !strings.Contains(joined, "hle-restore") {
		t.Fatalf("cause names incomplete: %s", joined)
	}
}

// TestRunThreadCountGuard: thread IDs index 64-bit line masks, so Run must
// reject counts outside 1..64.
func TestRunThreadCountGuard(t *testing.T) {
	m := newTestMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Run(65) did not panic")
		}
	}()
	m.Run(65, func(th *Thread) {})
}
