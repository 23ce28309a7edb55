package main

import (
	"time"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/sim"
	"hle/internal/tsx"
)

// The cost ladder times calls into one layer's public functions on one
// host thread, bottom layer first. Each rung reports the median of
// ladderReps repetitions.
const ladderReps = 5

var (
	ladderLocks   = []string{"TTAS", "MCS", "AdjTicket", "AdjCLH"}
	ladderSchemes = []string{"Standard", "HLE", "HLE-SCM", "RTM-LE", "Opt-SLR-SCM"}
)

// ladderNames lists the rungs in the order runLadder reports them.
func ladderNames() []string {
	names := []string{"ladder.sim.grant_ns", "ladder.sim.run_us", "ladder.tsx.access_ns", "ladder.tsx.fork_us_per_mb"}
	for _, l := range ladderLocks {
		names = append(names, "ladder.locks."+l+"_ns")
	}
	for _, s := range ladderSchemes {
		names = append(names, "ladder.core."+s+"_ns")
	}
	return append(names, "ladder.obs.overhead")
}

// runLadder times every rung. short shrinks the iteration counts and the
// forked tree for tests.
func runLadder(short bool) map[string]float64 {
	scale, forkNodes := 1, 131072
	if short {
		scale, forkNodes = 20, 4096
	}
	n := func(base int) int { return max(base/scale, 1) }
	out := map[string]float64{
		"ladder.sim.grant_ns":  medianRep(func() float64 { return grantNs(n(100_000)) }),
		"ladder.sim.run_us":    medianRep(func() float64 { return runUs(n(2_000)) }),
		"ladder.tsx.access_ns": medianRep(func() float64 { return accessNs(n(5_000)) }),
	}
	m := populatedTree(forkNodes)
	out["ladder.tsx.fork_us_per_mb"] = medianRep(func() float64 { return forkUsPerMB(m) })
	for _, l := range ladderLocks {
		out["ladder.locks."+l+"_ns"] = medianRep(func() float64 { return lockNs(l, n(100_000)) })
	}
	for _, s := range ladderSchemes {
		out["ladder.core."+s+"_ns"] = medianRep(func() float64 { return schemeNs(s, n(50_000), false) })
	}
	observed := medianRep(func() float64 { return schemeNs("HLE", n(50_000), true) })
	out["ladder.obs.overhead"] = observed / out["ladder.core.HLE_ns"]
	return out
}

func medianRep(f func() float64) float64 {
	v := make([]float64, ladderReps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// ladderMachine is a one-thread machine with jitter and spurious aborts
// off, so rungs time mechanics rather than random draws.
func ladderMachine(words int) *tsx.Machine {
	cfg := tsx.DefaultConfig(1)
	cfg.CostJitter = -1
	cfg.SpuriousPerAccess = 0
	if words > 0 {
		cfg.MemWords = words
	}
	return tsx.NewMachine(cfg)
}

// grantNs is the scheduler handoff: two procs at quantum 1 with unit
// steps, so nearly every Step passes the token.
func grantNs(steps int) float64 {
	g0 := sim.Grants()
	start := time.Now()
	sim.Run(sim.Config{Seed: 1, Quantum: 1}, 2, func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			p.Step(1)
		}
	})
	return float64(time.Since(start).Nanoseconds()) / float64(sim.Grants()-g0)
}

// runUs is the fixed cost of an empty two-proc Run: goroutine start-up
// and teardown, which explore pays once per replay.
func runUs(runs int) float64 {
	start := time.Now()
	for i := 0; i < runs; i++ {
		sim.Run(sim.Config{Seed: 1}, 2, func(*sim.Proc) {})
	}
	return float64(time.Since(start).Microseconds()) / float64(runs)
}

// accessNs is the transactional access path: 16 store+load pairs on
// distinct lines per RTM transaction.
func accessNs(txs int) float64 {
	var elapsed time.Duration
	ladderMachine(0).RunOne(func(t *tsx.Thread) {
		base := t.Alloc(16 * mem.LineWords)
		start := time.Now()
		for i := 0; i < txs; i++ {
			t.RTM(func() {
				for j := 0; j < 16; j++ {
					a := base + mem.Addr(j*mem.LineWords)
					t.Store(a, uint64(i))
					t.Load(a)
				}
			})
		}
		elapsed = time.Since(start)
	})
	return float64(elapsed.Nanoseconds()) / float64(txs*32)
}

func populatedTree(nodes int) *tsx.Machine {
	m := ladderMachine(nodes*16 + 1<<16)
	m.RunOne(func(t *tsx.Thread) {
		harness.NewRBTree(t, nodes, harness.MixModerate).Populate(t)
	})
	return m
}

// forkUsPerMB is one checkpoint plus one fork of a populated tree, per MB
// of simulated memory.
func forkUsPerMB(m *tsx.Machine) float64 {
	start := time.Now()
	tsx.FromCheckpoint(m.Checkpoint())
	mb := float64(m.Config().MemWords*8) / (1 << 20)
	return float64(time.Since(start).Microseconds()) / mb
}

// lockNs is one uncontended Acquire+Release pair.
func lockNs(name string, pairs int) float64 {
	var elapsed time.Duration
	ladderMachine(0).RunOne(func(t *tsx.Thread) {
		l := locks.MakerByName(name)(t)
		l.Prepare(t)
		start := time.Now()
		for i := 0; i < pairs; i++ {
			l.Acquire(t)
			l.Release(t)
		}
		elapsed = time.Since(start)
	})
	return float64(elapsed.Nanoseconds()) / float64(pairs)
}

// schemeNs is one uncontended Scheme.Run of a one-load critical section,
// optionally with a profiling collector attached.
func schemeNs(scheme string, runs int, observed bool) float64 {
	m := ladderMachine(0)
	if observed {
		defer obs.Attach(m, obs.Options{}).Detach()
	}
	var elapsed time.Duration
	m.RunOne(func(t *tsx.Thread) {
		var s core.Scheme = harness.SchemeSpec{Scheme: scheme, Lock: "TTAS"}.Build(t)
		s.Setup(t)
		word := t.Alloc(1)
		cs := func() { t.Load(word) }
		start := time.Now()
		for i := 0; i < runs; i++ {
			s.Run(t, cs)
		}
		elapsed = time.Since(start)
	})
	return float64(elapsed.Nanoseconds()) / float64(runs)
}
