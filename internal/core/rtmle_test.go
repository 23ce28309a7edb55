package core_test

import (
	"testing"

	"hle/internal/core"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// TestRTMLESerializable: RTM-based elision preserves counter exactness
// for both lock families.
func TestRTMLESerializable(t *testing.T) {
	for _, lockName := range []string{"TTAS", "MCS"} {
		t.Run(lockName, func(t *testing.T) {
			m := newMachine(6, 3)
			var s core.Scheme
			var ctr mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				s = core.NewRTMLE(locks.MakerByName(lockName)(th))
				ctr = th.AllocLines(1)
			})
			const perThread = 100
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
			var got uint64
			m.RunOne(func(th *tsx.Thread) { got = th.Load(ctr) })
			if got != 6*perThread {
				t.Fatalf("counter = %d, want %d", got, 6*perThread)
			}
		})
	}
}

// TestRTMLEComparableToHLE verifies the Figure 3.5 claim that justified the
// paper's measurement methodology: HLE-prefix elision and RTM-based elision
// produce comparable speculative success on a low-conflict workload.
func TestRTMLEComparableToHLE(t *testing.T) {
	run := func(mk func(th *tsx.Thread) core.Scheme) core.OpStats {
		m := newMachine(8, 5)
		var s core.Scheme
		var cells [8]mem.Addr
		m.RunOne(func(th *tsx.Thread) {
			s = mk(th)
			for i := range cells {
				cells[i] = th.AllocLines(1)
			}
		})
		m.Run(8, func(th *tsx.Thread) {
			s.Setup(th)
			for i := 0; i < 200; i++ {
				s.Run(th, func() {
					v := th.Load(cells[th.ID])
					th.Work(5)
					th.Store(cells[th.ID], v+1)
				})
			}
		})
		return s.TotalStats()
	}
	hleStats := run(func(th *tsx.Thread) core.Scheme { return core.NewHLE(locks.NewTTAS(th)) })
	rtmStats := run(func(th *tsx.Thread) core.Scheme { return core.NewRTMLE(locks.NewTTAS(th)) })
	hleSpec := float64(hleStats.Spec) / float64(hleStats.Ops)
	rtmSpec := float64(rtmStats.Spec) / float64(rtmStats.Ops)
	if hleSpec < 0.9 || rtmSpec < 0.9 {
		t.Fatalf("disjoint workload should be almost fully speculative: HLE %.2f, RTM %.2f", hleSpec, rtmSpec)
	}
	if diff := hleSpec - rtmSpec; diff > 0.1 || diff < -0.1 {
		t.Errorf("mechanisms diverge: HLE spec %.2f vs RTM spec %.2f", hleSpec, rtmSpec)
	}
}

// TestSCMIdealMatchesHaswellMode: Algorithm 3 verbatim (nested elision) and
// the paper's Haswell workaround must both eliminate the avalanche; their
// statistics should be in the same regime.
func TestSCMIdealMatchesHaswellMode(t *testing.T) {
	run := func(ideal bool) core.OpStats {
		cfg := tsx.DefaultConfig(8)
		cfg.Seed = 9
		cfg.SpuriousPerAccess = 0
		m := tsx.NewMachine(cfg)
		var s core.Scheme
		var hot mem.Addr
		var private [8]mem.Addr
		m.RunOne(func(th *tsx.Thread) {
			s = core.NewHLESCM(locks.NewMCS(th), locks.NewMCS(th), core.SCMConfig{Ideal: ideal})
			hot = th.AllocLines(1)
			for i := range private {
				private[i] = th.AllocLines(1)
			}
		})
		m.Run(8, func(th *tsx.Thread) {
			s.Setup(th)
			for i := 0; i < 150; i++ {
				cell := private[th.ID]
				if th.ID < 2 {
					cell = hot
				}
				s.Run(th, func() {
					v := th.Load(cell)
					th.Work(10)
					th.Store(cell, v+1)
				})
			}
		})
		return s.TotalStats()
	}
	haswell := run(false)
	ideal := run(true)
	if haswell.NonSpecFraction() > 0.05 {
		t.Errorf("Haswell-mode SCM non-spec fraction %.3f", haswell.NonSpecFraction())
	}
	if ideal.NonSpecFraction() > 0.05 {
		t.Errorf("ideal-mode SCM non-spec fraction %.3f", ideal.NonSpecFraction())
	}
}

// TestSLRSCMLivelockResistance: the Chapter 4 combination survives a
// workload engineered to make plain optimistic SLR burn all its retries.
func TestSLRSCMLivelockResistance(t *testing.T) {
	m := newMachine(8, 13)
	var s core.Scheme
	var hot mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		s = core.NewSLRSCM(locks.NewTTAS(th), locks.NewMCS(th), core.SCMConfig{})
		hot = th.AllocLines(1)
	})
	const perThread = 150
	m.Run(8, func(th *tsx.Thread) {
		s.Setup(th)
		for i := 0; i < perThread; i++ {
			s.Run(th, func() {
				v := th.Load(hot)
				th.Work(25)
				th.Store(hot, v+1)
			})
		}
	})
	var got uint64
	m.RunOne(func(th *tsx.Thread) { got = th.Load(hot) })
	if got != 8*perThread {
		t.Fatalf("counter = %d, want %d", got, 8*perThread)
	}
	if app := s.TotalStats().AttemptsPerOp(); app > 8 {
		t.Errorf("attempts/op = %.1f; SCM serialization should bound retry storms", app)
	}
}
