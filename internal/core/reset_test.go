package core_test

import (
	"reflect"
	"testing"

	"hle/internal/adapt"
	"hle/internal/core"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// TestResetMatchesFresh: a scheme that ran, then had its locks restored
// to their constructed values on a machine reset to the constructed image
// and was Reset, runs the next workload exactly like a scheme built fresh
// on a fork of that image — same statistics, and for Adaptive the same
// controller decisions. The workload is conflict-saturated, so Adaptive's
// controller moves; the lazy scheme's commit predicates are re-bound to
// the second run's threads.
func TestResetMatchesFresh(t *testing.T) {
	type resettable interface {
		core.Scheme
		Reset()
	}
	builds := map[string]func(main, aux locks.Lock) resettable{
		"Adaptive": func(main, aux locks.Lock) resettable {
			return core.NewAdaptive(main, aux, core.AdaptiveConfig{
				Controller: adapt.Config{DemotePct: 40, SerialDemotePct: 55},
			})
		},
		"RTM-LE-lazy": func(main, _ locks.Lock) resettable { return core.NewRTMLELazy(main) },
		"HLE-SCM":     func(main, aux locks.Lock) resettable { return core.NewHLESCM(main, aux, core.SCMConfig{}) },
		"Opt-SLR":     func(main, _ locks.Lock) resettable { return core.NewSLR(main, 0) },
	}
	m := newMachine(6, 33)
	var main *locks.TTAS
	var aux *locks.MCS
	var hot mem.Addr
	m.RunOne(func(th *tsx.Thread) {
		main, aux = locks.NewTTAS(th), locks.NewMCS(th)
		hot = th.AllocLines(1)
	})
	cp := m.Checkpoint()
	run := func(m *tsx.Machine, s core.Scheme) []core.OpStats {
		m.Run(6, func(th *tsx.Thread) {
			s.Setup(th)
			for i := 0; i < 150; i++ {
				s.Run(th, func() {
					v := th.Load(hot)
					th.Work(10)
					th.Store(hot, v+1)
				})
			}
		})
		var per []core.OpStats
		for id := 0; id < 6; id++ {
			per = append(per, s.Stats(id))
		}
		return per
	}
	for name, build := range builds {
		mainF, auxF := *main, *aux
		fresh := build(&mainF, &auxF)
		want := run(tsx.FromCheckpoint(cp), fresh)

		mainR, auxR := *main, *aux
		reused := build(&mainR, &auxR)
		rm := tsx.FromCheckpoint(cp)
		run(rm, reused)
		rm.Reset(cp)
		mainR, auxR = *main, *aux
		reused.Reset()
		if got := run(rm, reused); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reset scheme's per-thread stats %+v, fresh scheme's %+v", name, got, want)
		}
		if a, ok := fresh.(*core.Adaptive); ok {
			b := reused.(*core.Adaptive)
			if len(a.Transitions()) == 0 {
				t.Errorf("%s: the controller never moved; the reset is untested", name)
			}
			if !reflect.DeepEqual(b.Transitions(), a.Transitions()) || b.Level() != a.Level() {
				t.Errorf("%s: reset controller decided %v (level %v), fresh one %v (level %v)",
					name, b.Transitions(), b.Level(), a.Transitions(), a.Level())
			}
		}
	}
}
