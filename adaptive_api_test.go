package hle_test

import (
	"testing"

	"hle"
)

// TestAdaptiveFacade drives the Adaptive constructor end to end: a
// contended counter stays exact, the scheme reports its name and level,
// and the decision log is exposed through the AdaptiveScheme interface.
func TestAdaptiveFacade(t *testing.T) {
	sys := hle.NewSystem(4, hle.WithSeed(23))
	var counter hle.Addr
	var scheme hle.AdaptiveScheme
	sys.Init(func(th *hle.Thread) {
		counter = th.AllocLines(1)
		scheme = hle.Adaptive(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)),
			hle.WithAdaptiveTuning(hle.AdaptiveConfig{DemotePct: 40, SerialDemotePct: 55}))
	})
	const perThread = 250
	sys.Parallel(4, func(th *hle.Thread) {
		scheme.Setup(th)
		for i := 0; i < perThread; i++ {
			scheme.Run(th, func() {
				v := th.Load(counter)
				th.Work(8)
				th.Store(counter, v+1)
			})
		}
	})
	var got uint64
	sys.Init(func(th *hle.Thread) { got = th.Load(counter) })
	if got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
	if scheme.Name() != "Adaptive" {
		t.Errorf("name %q, want Adaptive", scheme.Name())
	}
	if int(scheme.Level()) < 0 || scheme.Level() > hle.LevelSerial {
		t.Errorf("level out of range: %v", scheme.Level())
	}
	for i, tr := range scheme.Transitions() {
		if tr.Seq != i || tr.From == tr.To {
			t.Errorf("incoherent transition %d: %+v", i, tr)
		}
	}
}

// TestAdaptiveDeterministic: identically-seeded systems produce identical
// statistics and transition logs through the facade.
func TestAdaptiveDeterministic(t *testing.T) {
	run := func() (hle.OpStats, []hle.AdaptiveTransition) {
		sys := hle.NewSystem(4, hle.WithSeed(9))
		var counter hle.Addr
		var scheme hle.AdaptiveScheme
		sys.Init(func(th *hle.Thread) {
			counter = th.AllocLines(1)
			scheme = hle.Adaptive(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)))
		})
		sys.Parallel(4, func(th *hle.Thread) {
			scheme.Setup(th)
			for i := 0; i < 200; i++ {
				scheme.Run(th, func() {
					th.Store(counter, th.Load(counter)+1)
				})
			}
		})
		return scheme.TotalStats(), scheme.Transitions()
	}
	s1, tr1 := run()
	s2, tr2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical seeds: %+v vs %+v", s1, s2)
	}
	if len(tr1) != len(tr2) {
		t.Fatalf("transition logs differ in length: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Errorf("transition %d differs: %+v vs %+v", i, tr1[i], tr2[i])
		}
	}
}

// TestAdaptiveMisusePanics: the Adaptive constructor rejects option
// combinations that cannot work, same contract as Elide/Removal.
func TestAdaptiveMisusePanics(t *testing.T) {
	cases := []struct {
		name  string
		build func(th *hle.Thread)
	}{
		{"MissingSCM", func(th *hle.Thread) {
			hle.Adaptive(hle.NewTTASLock(th))
		}},
		{"Adaptive+Pessimistic", func(th *hle.Thread) {
			hle.Adaptive(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)), hle.Pessimistic())
		}},
		{"Adaptive+MaxAttempts", func(th *hle.Thread) {
			hle.Adaptive(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)), hle.MaxAttempts(3))
		}},
		{"Adaptive+IdealSCM", func(th *hle.Thread) {
			hle.Adaptive(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)),
				hle.WithSCMTuning(hle.SCMConfig{Ideal: true}))
		}},
		{"TuningOnElide", func(th *hle.Thread) {
			hle.Elide(hle.NewTTASLock(th), hle.WithAdaptiveTuning(hle.AdaptiveConfig{}))
		}},
		{"TuningOnRemoval", func(th *hle.Thread) {
			hle.Removal(hle.NewTTASLock(th), hle.WithAdaptiveTuning(hle.AdaptiveConfig{}))
		}},
		{"InvalidTuning", func(th *hle.Thread) {
			hle.Adaptive(hle.NewTTASLock(th), hle.WithSCM(hle.NewMCSLock(th)),
				hle.WithAdaptiveTuning(hle.AdaptiveConfig{DemotePct: 200}))
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
