package hle_test

import (
	"fmt"
	"testing"

	"hle"
	"hle/internal/obs"
)

// Example demonstrates the package-level quick start: eight threads
// incrementing a shared counter under an elided MCS lock with SCM.
func Example() {
	sys := hle.NewSystem(8, hle.WithSeed(42))
	var lock hle.Lock
	var counter hle.Addr
	var scheme hle.Scheme
	sys.Init(func(t *hle.Thread) {
		lock = hle.NewMCSLock(t)
		counter = t.AllocLines(1)
		scheme = hle.Elide(lock, hle.WithSCM(hle.NewMCSLock(t)))
	})
	sys.Parallel(8, func(t *hle.Thread) {
		scheme.Setup(t)
		for i := 0; i < 1000; i++ {
			scheme.Run(t, func() {
				t.Store(counter, t.Load(counter)+1)
			})
		}
	})
	sys.Init(func(t *hle.Thread) {
		fmt.Println("counter =", t.Load(counter))
	})
	// Output: counter = 8000
}

// ExampleWithPlacement contrasts the packed baseline, where consecutive
// small allocations share a cache line (and therefore make
// logically-independent critical sections conflict under elision), with
// the padded policy, which gives every object private whole lines.
func ExampleWithPlacement() {
	for _, p := range []hle.Placement{hle.Packed, hle.Padded} {
		sys := hle.NewSystem(2, hle.WithSeed(1), hle.WithPlacement(p))
		var a, b hle.Addr
		sys.Init(func(t *hle.Thread) {
			a = t.Alloc(2)
			b = t.Alloc(2)
		})
		fmt.Printf("%s: a on line %d, b on line %d\n", p, a/8, b/8)
	}
	// Output:
	// packed: a on line 1, b on line 1
	// padded: a on line 1, b on line 2
}

// TestEverySchemeEveryLock exercises the full public construction matrix
// for serializability.
func TestEverySchemeEveryLock(t *testing.T) {
	lockMakers := map[string]func(*hle.Thread) hle.Lock{
		"TTAS":      hle.NewTTASLock,
		"MCS":       hle.NewMCSLock,
		"Ticket":    hle.NewTicketLock,
		"AdjTicket": hle.NewAdjustedTicketLock,
		"CLH":       hle.NewCLHLock,
		"AdjCLH":    hle.NewAdjustedCLHLock,
	}
	schemeMakers := map[string]func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme{
		"Standard": func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme {
			return hle.Standard(mk(t))
		},
		"Elide": func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme {
			return hle.Elide(mk(t))
		},
		"Elide+SCM": func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme {
			return hle.Elide(mk(t), hle.WithSCM(hle.NewMCSLock(t)))
		},
		"Removal": func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme {
			return hle.Removal(mk(t))
		},
		"Removal-Pessimistic": func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme {
			return hle.Removal(mk(t), hle.Pessimistic())
		},
		"Removal+SCM": func(t *hle.Thread, mk func(*hle.Thread) hle.Lock) hle.Scheme {
			return hle.Removal(mk(t), hle.WithSCM(hle.NewMCSLock(t)))
		},
	}
	for ln, lmk := range lockMakers {
		for sn, smk := range schemeMakers {
			t.Run(sn+"/"+ln, func(t *testing.T) {
				sys := hle.NewSystem(4, hle.WithSeed(7))
				var counter hle.Addr
				var scheme hle.Scheme
				sys.Init(func(th *hle.Thread) {
					counter = th.AllocLines(1)
					scheme = smk(th, lmk)
				})
				sys.Parallel(4, func(th *hle.Thread) {
					scheme.Setup(th)
					for i := 0; i < 50; i++ {
						scheme.Run(th, func() {
							v := th.Load(counter)
							th.Work(3)
							th.Store(counter, v+1)
						})
					}
				})
				var got uint64
				sys.Init(func(th *hle.Thread) { got = th.Load(counter) })
				if got != 200 {
					t.Fatalf("counter = %d, want 200", got)
				}
			})
		}
	}
}

// TestHardwareExtensionOption wires the Chapter 7 scheme end to end on a
// plain system: the scheme brings the extension.
func TestHardwareExtensionOption(t *testing.T) {
	sys := hle.NewSystem(4, hle.WithSeed(3))
	var lock hle.Lock
	var counter hle.Addr
	var scheme hle.Scheme
	sys.Init(func(th *hle.Thread) {
		lock = hle.NewTTASLock(th)
		counter = th.AllocLines(1)
		scheme = hle.ElideWithHardwareExtension(lock)
	})
	sys.Parallel(4, func(th *hle.Thread) {
		scheme.Setup(th)
		for i := 0; i < 100; i++ {
			scheme.Run(th, func() {
				th.Store(counter, th.Load(counter)+1)
			})
		}
	})
	var got uint64
	sys.Init(func(th *hle.Thread) { got = th.Load(counter) })
	if got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
	if scheme.Name() != "HLE-HWExt" {
		t.Errorf("scheme name %q", scheme.Name())
	}
}

// TestSchemesBringTheirHardware: on a plain NewSystem each scheme selects
// its own elision hardware in Setup. ElideWithHardwareExtension runs on
// the Chapter 7 extension — a non-speculative holder's lock store aborts
// none of its speculating threads, where plain Elide loses some to
// lock-line conflicts — and the ideal SCM variant nests its elision
// inside RTM (Algorithm 3 verbatim), which plain SCM does not.
func TestSchemesBringTheirHardware(t *testing.T) {
	lockLineAborts := func(elide func(hle.Lock) hle.Scheme) uint64 {
		sys := hle.NewSystem(4, hle.WithSeed(3), hle.WithProfiling(hle.ProfileOptions{}))
		var lock hle.Lock
		var private [4]hle.Addr
		var scheme hle.Scheme
		sys.Init(func(th *hle.Thread) {
			lock = hle.NewTTASLock(th)
			for i := range private {
				private[i] = th.AllocLines(1)
			}
			scheme = elide(lock)
		})
		sys.Parallel(4, func(th *hle.Thread) {
			scheme.Setup(th)
			for i := 0; i < 100; i++ {
				if th.ID == 0 {
					// A non-speculative holder: its lock store is the
					// only conflict the private counters allow.
					lock.Acquire(th)
					th.Work(40)
					lock.Release(th)
					th.Work(40)
					continue
				}
				scheme.Run(th, func() {
					c := private[th.ID]
					th.Store(c, th.Load(c)+1)
				})
			}
		})
		return sys.Profile().Cause(obs.ClassConflictLockLine)
	}
	if n := lockLineAborts(func(l hle.Lock) hle.Scheme { return hle.Elide(l) }); n == 0 {
		t.Error("Elide: no lock-line conflict aborts; the workload does not exercise the extension")
	}
	if n := lockLineAborts(hle.ElideWithHardwareExtension); n != 0 {
		t.Errorf("ElideWithHardwareExtension: %d lock-line conflict aborts, want 0", n)
	}

	nests := func(scm hle.SCMConfig) bool {
		sys := hle.NewSystem(1, hle.WithSeed(3))
		var scheme hle.Scheme
		sys.Init(func(th *hle.Thread) {
			scheme = hle.Elide(hle.NewMCSLock(th), hle.WithSCM(hle.NewMCSLock(th)), hle.WithSCMTuning(scm))
		})
		nested := false
		sys.Parallel(1, func(th *hle.Thread) {
			scheme.Setup(th)
			scheme.Run(th, func() { nested = th.InElision() })
		})
		return nested
	}
	if !nests(hle.SCMConfig{Ideal: true}) {
		t.Error("Elide(WithSCMTuning(SCMConfig{Ideal: true})) did not nest its elision inside RTM")
	}
	if nests(hle.SCMConfig{}) {
		t.Error("plain SCM nested its elision inside RTM")
	}
}

// TestDeterminismAcrossSystems: two identically-seeded systems agree on
// every statistic.
func TestDeterminismAcrossSystems(t *testing.T) {
	run := func() hle.OpStats {
		sys := hle.NewSystem(4, hle.WithSeed(99))
		var lock hle.Lock
		var counter hle.Addr
		var scheme hle.Scheme
		sys.Init(func(th *hle.Thread) {
			lock = hle.NewTTASLock(th)
			counter = th.AllocLines(1)
			scheme = hle.Elide(lock)
		})
		sys.Parallel(4, func(th *hle.Thread) {
			scheme.Setup(th)
			for i := 0; i < 200; i++ {
				scheme.Run(th, func() {
					th.Store(counter, th.Load(counter)+1)
				})
			}
		})
		return scheme.TotalStats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestWithConfigOption verifies advanced configuration plumbing.
func TestWithConfigOption(t *testing.T) {
	sys := hle.NewSystem(2, hle.WithConfig(func(c *hle.MachineConfig) {
		c.SpuriousPerAccess = 0.5
		c.Seed = 5
	}))
	aborted := false
	sys.Init(func(th *hle.Thread) {
		for i := 0; i < 20 && !aborted; i++ {
			ok, _ := th.RTM(func() {
				a := th.Alloc(1)
				th.Store(a, 1)
			})
			if !ok {
				aborted = true
			}
		}
	})
	if !aborted {
		t.Fatal("0.5 spurious rate produced no aborts in 20 transactions")
	}
}

// TestFacadeOptions covers the remaining configuration surface.
func TestFacadeOptions(t *testing.T) {
	sys := hle.NewSystem(2,
		hle.WithSeed(5),
		hle.WithMemory(1<<17),
	)
	if sys.Machine() == nil {
		t.Fatal("Machine accessor nil")
	}
	var counter hle.Addr
	var scheme hle.Scheme
	sys.Init(func(th *hle.Thread) {
		counter = th.AllocLines(1)
		// Ideal Algorithm 3, which selects nesting itself, with
		// explicit tuning.
		scheme = hle.Elide(hle.NewMCSLock(th), hle.WithSCM(hle.NewMCSLock(th)),
			hle.WithSCMTuning(hle.SCMConfig{MaxRetries: 5, Ideal: true}))
	})
	sys.Parallel(2, func(th *hle.Thread) {
		scheme.Setup(th)
		for i := 0; i < 100; i++ {
			scheme.Run(th, func() {
				th.Store(counter, th.Load(counter)+1)
			})
		}
	})
	var got uint64
	sys.Init(func(th *hle.Thread) { got = th.Load(counter) })
	if got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
	if scheme.Name() != "HLE-SCM-ideal" {
		t.Errorf("scheme name %q", scheme.Name())
	}
}
