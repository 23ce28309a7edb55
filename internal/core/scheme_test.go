package core_test

import (
	"testing"

	"hle/internal/core"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

func newMachine(n int, seed int64) *tsx.Machine {
	cfg := tsx.DefaultConfig(n)
	cfg.Seed = seed
	cfg.SpuriousPerAccess = 0
	return tsx.NewMachine(cfg)
}

// buildScheme constructs every scheme under test for the given lock name.
func buildSchemes(th *tsx.Thread, lockName string) []core.Scheme {
	mk := locks.MakerByName(lockName)
	newAux := func() locks.Lock { return locks.NewMCS(th) }
	return []core.Scheme{
		core.NewStandard(mk(th)),
		core.NewHLE(mk(th)),
		core.NewHLESCM(mk(th), newAux(), core.SCMConfig{}),
		core.NewHLESCM(mk(th), newAux(), core.SCMConfig{Ideal: true}),
		core.NewPessimisticSLR(mk(th)),
		core.NewSLR(mk(th), 0),
		core.NewSLRSCM(mk(th), newAux(), core.SCMConfig{}),
		core.NewHLESCMMulti(mk(th), []locks.Lock{newAux(), newAux(), newAux()}, core.SCMConfig{}),
	}
}

// TestSchemesSerializable: under every scheme × every lock, concurrent
// counter increments are exact and attempts/ops accounting is consistent.
func TestSchemesSerializable(t *testing.T) {
	for _, lockName := range []string{"TTAS", "MCS", "AdjTicket", "AdjCLH"} {
		t.Run(lockName, func(t *testing.T) {
			cfg := tsx.DefaultConfig(6)
			cfg.Seed = 5
			cfg.SpuriousPerAccess = 0
			m := tsx.NewMachine(cfg)
			var schemes []core.Scheme
			var ctr mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				schemes = buildSchemes(th, lockName)
				ctr = th.AllocLines(1)
			})
			for _, s := range schemes {
				s := s
				t.Run(s.Name(), func(t *testing.T) {
					var before uint64
					m.RunOne(func(th *tsx.Thread) { before = th.Load(ctr) })
					const perThread = 60
					m.Run(6, func(th *tsx.Thread) {
						s.Setup(th)
						for i := 0; i < perThread; i++ {
							s.Run(th, func() {
								v := th.Load(ctr)
								th.Work(3)
								th.Store(ctr, v+1)
							})
						}
					})
					var after uint64
					m.RunOne(func(th *tsx.Thread) { after = th.Load(ctr) })
					if after-before != 6*perThread {
						t.Fatalf("counter grew %d, want %d", after-before, 6*perThread)
					}
					total := s.TotalStats()
					if total.Ops < 6*perThread {
						t.Errorf("ops = %d, want >= %d", total.Ops, 6*perThread)
					}
					if total.Spec+total.NonSpec != total.Ops {
						t.Errorf("spec %d + nonspec %d != ops %d", total.Spec, total.NonSpec, total.Ops)
					}
					if total.Attempts < total.Ops {
						t.Errorf("attempts %d < ops %d", total.Attempts, total.Ops)
					}
				})
			}
		})
	}
}

// TestConsistentSnapshots: writers keep the invariant x == y inside the
// critical section; readers must never observe x != y, under every scheme.
// This is the Lemma 1 scenario — it fails if speculative threads can
// observe a non-speculative lock holder's partial writes.
func TestConsistentSnapshots(t *testing.T) {
	for _, lockName := range []string{"TTAS", "MCS"} {
		t.Run(lockName, func(t *testing.T) {
			m := newMachine(4, 9)
			var schemes []core.Scheme
			var x, y mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				schemes = buildSchemes(th, lockName)
				x = th.AllocLines(1)
				y = th.AllocLines(1)
			})
			for _, s := range schemes {
				s := s
				t.Run(s.Name(), func(t *testing.T) {
					violations := 0
					m.Run(4, func(th *tsx.Thread) {
						s.Setup(th)
						for i := 0; i < 80; i++ {
							if th.ID%2 == 0 {
								s.Run(th, func() {
									v := th.Load(x)
									th.Store(y, v+1)
									th.Work(7)
									th.Store(x, v+1)
								})
							} else {
								// A speculative run that observes an
								// inconsistency may be a zombie that
								// aborts (real TSX behaves the same);
								// only the completing execution's
								// observation counts.
								bad := false
								s.Run(th, func() {
									bad = false
									vy := th.Load(y)
									th.Work(7)
									vx := th.Load(x)
									if vx != vy {
										bad = true
									}
								})
								if bad {
									violations++
								}
							}
						}
					})
					if violations > 0 {
						t.Fatalf("%d inconsistent snapshots observed", violations)
					}
				})
			}
		})
	}
}

// TestAvalancheAndSCMRescue reproduces the paper's core claim: under plain
// HLE an MCS lock serializes almost everything after an abort (the
// avalanche), while HLE-SCM keeps non-conflicting threads speculative.
func TestAvalancheAndSCMRescue(t *testing.T) {
	run := func(mkScheme func(th *tsx.Thread) core.Scheme) core.OpStats {
		m := newMachine(8, 3)
		var s core.Scheme
		var hot mem.Addr
		var private [8]mem.Addr
		m.RunOne(func(th *tsx.Thread) {
			s = mkScheme(th)
			hot = th.AllocLines(1)
			for i := range private {
				private[i] = th.AllocLines(1)
			}
		})
		m.Run(8, func(th *tsx.Thread) {
			s.Setup(th)
			for i := 0; i < 150; i++ {
				if th.ID < 2 {
					// Conflicting pair: fight over the hot line.
					s.Run(th, func() {
						v := th.Load(hot)
						th.Work(10)
						th.Store(hot, v+1)
					})
				} else {
					// Non-conflicting majority.
					s.Run(th, func() {
						v := th.Load(private[th.ID])
						th.Work(10)
						th.Store(private[th.ID], v+1)
					})
				}
			}
		})
		// Aggregate the six non-conflicting threads only.
		var agg core.OpStats
		for id := 2; id < 8; id++ {
			agg.Add(s.Stats(id))
		}
		return agg
	}

	hle := run(func(th *tsx.Thread) core.Scheme {
		return core.NewHLE(locks.NewMCS(th))
	})
	scm := run(func(th *tsx.Thread) core.Scheme {
		return core.NewHLESCM(locks.NewMCS(th), locks.NewMCS(th), core.SCMConfig{})
	})

	if hle.NonSpecFraction() < 0.2 {
		t.Errorf("plain HLE MCS: non-speculative fraction %.2f for innocent threads; expected avalanche serialization",
			hle.NonSpecFraction())
	}
	if scm.NonSpecFraction() > 0.05 {
		t.Errorf("HLE-SCM: non-speculative fraction %.2f for innocent threads; SCM should keep them speculative",
			scm.NonSpecFraction())
	}
	if scm.NonSpecFraction() >= hle.NonSpecFraction() {
		t.Errorf("SCM (%.2f) should serialize less than plain HLE (%.2f)",
			scm.NonSpecFraction(), hle.NonSpecFraction())
	}
}

// TestSCMLivelockFreedom: two threads that always conflict must still make
// progress (Chapter 4's livelock argument).
func TestSCMLivelockFreedom(t *testing.T) {
	m := newMachine(2, 7)
	var s core.Scheme
	var hot mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		s = core.NewHLESCM(locks.NewTTAS(th), locks.NewMCS(th), core.SCMConfig{})
		hot = th.AllocLines(1)
	})
	const perThread = 300
	m.Run(2, func(th *tsx.Thread) {
		s.Setup(th)
		for i := 0; i < perThread; i++ {
			s.Run(th, func() {
				v := th.Load(hot)
				th.Work(20)
				th.Store(hot, v+1)
			})
		}
	})
	var got uint64
	m.RunOne(func(th *tsx.Thread) { got = th.Load(hot) })
	if got != 2*perThread {
		t.Fatalf("counter = %d, want %d", got, 2*perThread)
	}
	// Bounded work per operation: SCM serializes conflicting threads, so
	// attempts per op should stay modest rather than exploding.
	if app := s.TotalStats().AttemptsPerOp(); app > 5 {
		t.Errorf("attempts per op = %.1f under SCM; conflict serialization should bound this", app)
	}
}

// TestSCMStarvationFreedom: with a fair aux lock, no thread starves even
// under constant conflict and unequal thread counts.
func TestSCMStarvationFreedom(t *testing.T) {
	m := newMachine(8, 15)
	var s core.Scheme
	var hot mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		s = core.NewHLESCM(locks.NewMCS(th), locks.NewMCS(th), core.SCMConfig{})
		hot = th.AllocLines(1)
	})
	counts := make([]int, 8)
	const budget = 3_000_000
	m.Run(8, func(th *tsx.Thread) {
		s.Setup(th)
		for th.Clock() < budget {
			s.Run(th, func() {
				v := th.Load(hot)
				th.Work(10)
				th.Store(hot, v+1)
			})
			counts[th.ID]++
		}
	})
	for id, c := range counts {
		if c == 0 {
			t.Fatalf("thread %d starved: %v", id, counts)
		}
	}
}

// TestNoLockBaseline sanity-checks the normalization scheme.
func TestNoLockBaseline(t *testing.T) {
	m := newMachine(1, 1)
	var ctr mem.Addr
	s := core.NewNoLock()
	m.RunOne(func(th *tsx.Thread) {
		ctr = th.AllocLines(1)
		s.Setup(th)
		for i := 0; i < 10; i++ {
			s.Run(th, func() { th.Store(ctr, th.Load(ctr)+1) })
		}
		if th.Load(ctr) != 10 {
			t.Error("NoLock lost updates single-threaded")
		}
	})
	if s.TotalStats().Ops != 10 {
		t.Error("NoLock stats wrong")
	}
}

// TestSLRPartialSpeculation: SLR transactions keep speculating while the
// main lock is held non-speculatively — the property that distinguishes it
// from HLE (§4, §5.2).
func TestSLRPartialSpeculation(t *testing.T) {
	m := newMachine(4, 11)
	var s core.Scheme
	var l locks.Lock
	var cells [4]mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		l = locks.NewTTAS(th)
		s = core.NewSLR(l, 0)
		for i := range cells {
			cells[i] = th.AllocLines(1)
		}
	})
	m.Run(4, func(th *tsx.Thread) {
		s.Setup(th)
		if th.ID == 0 {
			// Repeatedly hold the main lock non-speculatively.
			for i := 0; i < 20; i++ {
				l.Acquire(th)
				th.Work(500)
				l.Release(th)
				th.Work(100)
			}
			return
		}
		for i := 0; i < 100; i++ {
			s.Run(th, func() {
				v := th.Load(cells[th.ID])
				th.Work(5)
				th.Store(cells[th.ID], v+1)
			})
		}
	})
	var agg core.OpStats
	for id := 1; id < 4; id++ {
		agg.Add(s.Stats(id))
	}
	// The lock is held roughly 5/6 of the time, yet most disjoint SLR
	// operations should still commit speculatively (they only read the
	// lock at commit time and retry on failure).
	if f := agg.NonSpecFraction(); f > 0.5 {
		t.Errorf("SLR non-speculative fraction %.2f; expected speculation despite held lock", f)
	}
}

// TestSchemeNames pins the report names the figures rely on.
func TestSchemeNames(t *testing.T) {
	m := newMachine(1, 1)
	m.RunOne(func(th *tsx.Thread) {
		l := locks.NewTTAS(th)
		aux := locks.NewMCS(th)
		for _, want := range []struct {
			s    core.Scheme
			name string
		}{
			{core.NewStandard(l), "Standard"},
			{core.NewNoLock(), "NoLock"},
			{core.NewHLE(l), "HLE"},
			{core.NewHLESCM(l, aux, core.SCMConfig{}), "HLE-SCM"},
			{core.NewHLESCM(l, aux, core.SCMConfig{Ideal: true}), "HLE-SCM-ideal"},
			{core.NewPessimisticSLR(l), "Pes-SLR"},
			{core.NewSLR(l, 0), "Opt-SLR"},
			{core.NewSLRSCM(l, aux, core.SCMConfig{}), "Opt-SLR-SCM"},
			{core.NewHLESCMMulti(l, []locks.Lock{aux}, core.SCMConfig{}), "HLE-SCM-multi"},
		} {
			if want.s.Name() != want.name {
				t.Errorf("scheme name %q, want %q", want.s.Name(), want.name)
			}
		}
	})
}
