package hle_test

import (
	"bytes"
	"strings"
	"testing"

	"hle"
)

// TestOptionMisusePanics: options passed to constructors that do not
// accept them — whether from another family in the shared Option
// namespace or as a contradictory combination within one constructor —
// are programming errors and fail loudly at construction.
func TestOptionMisusePanics(t *testing.T) {
	cases := []struct {
		name  string
		build func(th *hle.Thread)
	}{
		// Scheme options into the wrong scheme constructor.
		{"Elide+Pessimistic", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.Pessimistic())
		}},
		{"Elide+MaxAttempts", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.MaxAttempts(3))
		}},
		{"Elide+AdaptiveTuning", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.WithAdaptiveTuning(hle.AdaptiveConfig{}))
		}},
		// Cross-family misuse: the shared namespace compiles these, the
		// constructor rejects them by name.
		{"NewSystem+WithSCM", func(th *hle.Thread) {
			hle.NewSystem(2, hle.WithSCM(hle.NewMCSLock(th)))
		}},
		{"Elide+WithSeed", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.WithSeed(7))
		}},
		{"Elide+WithPlacement", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.WithPlacement(hle.Padded))
		}},
		{"Sharded+WithSCM", func(th *hle.Thread) {
			hle.Sharded(th, 4, hle.WithSCM(hle.NewMCSLock(th)))
		}},
		{"NewSystem+WithShardStripes", func(th *hle.Thread) {
			hle.NewSystem(2, hle.WithShardStripes(4))
		}},
		{"ZeroOption", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.Option{})
		}},
		// WithSubscription is an Elide-only option.
		{"Removal+WithSubscription", func(th *hle.Thread) {
			hle.Removal(hle.NewTTASLock(th), hle.WithSubscription(hle.Lazy))
		}},
		{"Adaptive+WithSubscription", func(th *hle.Thread) {
			hle.Adaptive(hle.NewMCSLock(th), hle.WithSCM(hle.NewMCSLock(th)),
				hle.WithSubscription(hle.Lazy))
		}},
		{"NewSystem+WithSubscription", func(th *hle.Thread) {
			hle.NewSystem(2, hle.WithSubscription(hle.Lazy))
		}},
		{"WithSubscription+Unknown", func(th *hle.Thread) {
			hle.WithSubscription(hle.Subscription(42))
		}},
		// Contradictory combinations within one constructor.
		{"TuningWithoutSCM", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.WithSCMTuning(hle.SCMConfig{MaxRetries: 3}))
		}},
		{"LazySubscription+SCM", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)),
				hle.WithSubscription(hle.Lazy))
		}},
		{"RemovalSCM+MaxAttempts", func(th *hle.Thread) {
			hle.Removal(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)), hle.MaxAttempts(3))
		}},
		{"RemovalSCM+Ideal", func(th *hle.Thread) {
			hle.Removal(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)),
				hle.WithSCMTuning(hle.SCMConfig{Ideal: true}))
		}},
		{"Pessimistic+ManyAttempts", func(th *hle.Thread) {
			hle.Removal(hle.NewTTASLock(th), hle.Pessimistic(), hle.MaxAttempts(5))
		}},
		{"Sharded+TwoSchemeSelectors", func(th *hle.Thread) {
			hle.Sharded(th, 4,
				hle.WithShardSchemeName("HLE"),
				hle.WithShardScheme(func(t *hle.Thread, main hle.Lock, si int) hle.Scheme {
					return hle.Standard(main)
				}))
		}},
		{"Sharded+ZeroShards", func(th *hle.Thread) {
			hle.Sharded(th, 0)
		}},
		{"WithPlacement+Unknown", func(th *hle.Thread) {
			hle.WithPlacement(hle.Placement(42))
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sys := hle.NewSystem(1, hle.WithSeed(1))
			defer func() {
				if recover() == nil {
					t.Fatal("expected construction panic")
				}
			}()
			sys.Init(c.build)
		})
	}
}

// TestMisusePanicNamesConstructors: the misuse panic must tell the user
// which constructors do accept the option, so the fix is in the message.
func TestMisusePanicNamesConstructors(t *testing.T) {
	sys := hle.NewSystem(1, hle.WithSeed(1))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected construction panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"NewSystem", "WithSCM", "Elide/Removal/Adaptive"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	sys.Init(func(th *hle.Thread) {
		hle.NewSystem(2, hle.WithSCM(hle.NewMCSLock(th)))
	})
}

// profiledContention runs a contended counter on a profiling system and
// returns the profile.
func profiledContention(seed int64) *hle.Profile {
	sys := hle.NewSystem(4, hle.WithSeed(seed), hle.WithProfiling(hle.ProfileOptions{}))
	var counter hle.Addr
	var scheme hle.Scheme
	sys.Init(func(th *hle.Thread) {
		counter = th.AllocLines(1)
		scheme = hle.Elide(hle.NewTTASLock(th))
	})
	sys.Parallel(4, func(th *hle.Thread) {
		scheme.Setup(th)
		for i := 0; i < 200; i++ {
			scheme.Run(th, func() {
				th.Store(counter, th.Load(counter)+1)
			})
		}
	})
	return sys.Profile()
}

// TestProfilingOption wires WithProfiling end to end: the profile is
// delivered, attributes every abort to exactly one cause, and is
// byte-identical across identically-seeded systems.
func TestProfilingOption(t *testing.T) {
	p := profiledContention(23)
	if p == nil {
		t.Fatal("Profile() returned nil on a profiling system")
	}
	if p.TotalAborts == 0 {
		t.Fatal("contended elision recorded no aborts")
	}
	if sum := p.CauseSum(); sum != p.TotalAborts {
		t.Fatalf("cause sum %d != total aborts %d", sum, p.TotalAborts)
	}
	if q := profiledContention(23); !bytes.Equal(p.JSON(), q.JSON()) {
		t.Fatal("equal seeds produced different profile JSON")
	}

	// A system built without WithProfiling reports no profile.
	plain := hle.NewSystem(2, hle.WithSeed(23))
	if plain.Profile() != nil {
		t.Fatal("Profile() non-nil without WithProfiling")
	}
}

// TestChaosFacade drives the re-exported fault-injection surface: a
// deterministic schedule, an engine installed at construction, faults
// counted, and the profiler classifying the injected aborts separately
// from organic spurious ones.
func TestChaosFacade(t *testing.T) {
	schedule := hle.RandomFaultSchedule(9, 2, 50_000, 6)
	if len(schedule) != 6 {
		t.Fatalf("schedule has %d faults, want 6", len(schedule))
	}
	if again := hle.RandomFaultSchedule(9, 2, 50_000, 6); len(again) != len(schedule) {
		t.Fatal("RandomFaultSchedule nondeterministic")
	}
	engine := hle.NewChaosEngine(schedule...)
	sys := hle.NewSystem(2,
		hle.WithSeed(9),
		hle.WithProfiling(hle.ProfileOptions{}),
		hle.WithFaultInjection(engine),
	)
	var counter hle.Addr
	var scheme hle.Scheme
	sys.Init(func(th *hle.Thread) {
		counter = th.AllocLines(1)
		scheme = hle.Elide(hle.NewMCSLock(th), hle.WithSCM(hle.NewMCSLock(th)))
	})
	sys.Parallel(2, func(th *hle.Thread) {
		scheme.Setup(th)
		for i := 0; i < 400; i++ {
			scheme.Run(th, func() {
				th.Store(counter, th.Load(counter)+1)
			})
		}
	})
	n := engine.Counters()
	if n.Aborts+n.Stalls+n.Squeezes+n.Skews == 0 {
		t.Fatal("chaos engine delivered no faults")
	}
	p := sys.Profile()
	if p == nil {
		t.Fatal("no profile")
	}
	if sum := p.CauseSum(); sum != p.TotalAborts {
		t.Fatalf("cause sum %d != total aborts %d under injection", sum, p.TotalAborts)
	}

	// The watchdog constructor is reachable and arms cleanly.
	wd := hle.NewWatchdog(hle.WatchdogConfig{LivelockWindow: 1 << 20}, 2)
	if wd == nil {
		t.Fatal("NewWatchdog returned nil")
	}
}
