package figures

import (
	"fmt"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// AblationSCMRetries sweeps the SCM MaxRetries knob the paper tunes in
// §5.1 ("the thread holding the auxiliary lock retries to complete its
// operation speculatively 10 times before giving up"). Too few retries
// serialize needlessly; very many add little.
func AblationSCMRetries(o Options) []*stats.Table {
	o = o.withDefaults()
	const size = 128
	retriesSweep := []int{1, 2, 5, 10, 20, 50}
	if o.Quick {
		retriesSweep = []int{1, 10, 50}
	}
	tb := &stats.Table{
		Title:  "Ablation — HLE-SCM MaxRetries (MCS lock, 128-node tree, 50/50 mix)",
		Header: []string{"max retries", "throughput", "attempts/op", "non-spec frac"},
	}
	// Every sweep point measures the same populated tree, so they all fork
	// one warm template instead of re-filling per point.
	warm := &harness.WarmTemplate{
		Machine: machineCfg(o, size),
		MkWorkload: func(t *tsx.Thread) harness.Workload {
			return mkRBTree(t, size, harness.MixExtensive)
		},
	}
	var points []harness.PointSpec
	for _, r := range retriesSweep {
		points = append(points, harness.PointSpec{
			Warm: warm,
			// The retry knob has no SchemeSpec spelling, so build the
			// scheme directly.
			MkScheme: func(t *tsx.Thread) core.Scheme {
				return core.NewHLESCM(locks.NewMCS(t), locks.NewMCS(t), core.SCMConfig{MaxRetries: r})
			},
			Cfg: harness.Config{Threads: o.Threads, CycleBudget: o.Budget},
		})
	}
	results := measureSpecs(o, points, func(i int) string {
		return fmt.Sprintf("retries%d", retriesSweep[i])
	}, nil)
	for i, r := range retriesSweep {
		res := results[i]
		tb.AddRow(stats.I(r), stats.F2(res.Throughput),
			stats.F2(res.Ops.AttemptsPerOp()), stats.F3(res.Ops.NonSpecFraction()))
	}
	return []*stats.Table{tb}
}

// AblationSpurious sweeps the spurious-abort rate: §2.2 observes that
// spurious aborts alone can trigger the avalanche ("even in a read-only
// workload, the MCS lock experiences severe avalanche behavior due to
// spurious aborts", §5.2). Higher rates must hurt HLE MCS far more than
// HLE-SCM MCS.
func AblationSpurious(o Options) []*stats.Table {
	o = o.withDefaults()
	const size = 4096
	rates := []float64{0, 1e-6, 1e-5, 1e-4}
	if o.Quick {
		rates = []float64{0, 1e-4}
	}
	tb := &stats.Table{
		Title:  "Ablation — spurious aborts vs avalanche (lookup-only 4K tree, MCS lock)",
		Header: []string{"rate/access", "HLE non-spec", "HLE tput", "SCM non-spec", "SCM tput"},
	}
	schemes := []string{"HLE", "HLE-SCM"}
	var points []harness.PointSpec
	for _, rate := range rates {
		// The spurious rate lives in the machine config, so each rate gets
		// its own warm template; both schemes at that rate fork it.
		cfg := machineCfg(o, size)
		cfg.SpuriousPerAccess = rate
		warm := &harness.WarmTemplate{
			Machine: cfg,
			MkWorkload: func(t *tsx.Thread) harness.Workload {
				return mkRBTree(t, size, harness.MixLookupOnly)
			},
		}
		for _, scheme := range schemes {
			points = append(points, harness.PointSpec{
				Warm:   warm,
				Scheme: harness.SchemeSpec{Scheme: scheme, Lock: "MCS"},
				Cfg:    harness.Config{Threads: o.Threads, CycleBudget: o.Budget},
			})
		}
	}
	results := measureSpecs(o, points, func(i int) string {
		return fmt.Sprintf("rate%s/%s", stats.E2(rates[i/len(schemes)]), schemes[i%len(schemes)])
	}, nil)
	for ri, rate := range rates {
		row := []string{stats.E2(rate)}
		for si := range schemes {
			res := results[ri*len(schemes)+si]
			row = append(row, stats.F3(res.Ops.NonSpecFraction()), stats.F2(res.Throughput))
		}
		tb.AddRow(row...)
	}
	return []*stats.Table{tb}
}

// AblationMultiAux compares single-aux-lock SCM against the future-work
// multi-group variant on a workload with several independent hot spots —
// the case the Chapter 4 remark anticipates ("a single conflicting thread
// does not have to conflict with the entire group").
func AblationMultiAux(o Options) []*stats.Table {
	o = o.withDefaults()
	tb := &stats.Table{
		Title:  "Ablation — single-group vs multi-group SCM (independent hot counter pairs)",
		Header: []string{"scheme", "throughput", "attempts/op", "non-spec frac"},
	}
	variants := []string{"HLE-SCM", "HLE-SCM-multi"}
	results, _ := measure(o, len(variants), func(vi int) string { return "hotpairs/" + variants[vi] }, nil,
		func(vi int, prof *obs.Options) (harness.Result, *obs.Profile) {
			cfg := machineCfg(o, 64)
			var profile func() *obs.Profile
			cfg.Observer, profile = observe(prof, variants[vi])
			m := tsx.NewMachine(cfg)
			var s core.Scheme
			var cells []mem.Addr
			m.RunOne(func(t *tsx.Thread) {
				s = harness.SchemeSpec{Scheme: variants[vi], Lock: "TTAS"}.Build(t)
				// Independent hot counters, each fought over by a pair
				// of threads with long critical sections: conflicts
				// within a pair are frequent but pairs never conflict
				// with each other — exactly the case where one global
				// conflict group over-serializes.
				for i := 0; i < 4; i++ {
					cells = append(cells, t.AllocLines(1))
				}
			})
			var res harness.Result
			threads := m.Run(o.Threads, func(t *tsx.Thread) {
				s.Setup(t)
				cell := cells[t.ID%len(cells)]
				for t.Clock() < o.Budget {
					s.Run(t, func() {
						v := t.Load(cell)
						t.Work(120)
						t.Store(cell, v+1)
					})
					// Randomized think time keeps the pair phases
					// colliding instead of settling into polite
					// alternation.
					t.Work(uint64(t.Rand().Intn(200)))
				}
			})
			for _, t := range threads {
				res.TSX.Add(t.Stats)
				if t.Clock() > res.MaxClock {
					res.MaxClock = t.Clock()
				}
			}
			res.Ops = s.TotalStats()
			res.Throughput = float64(res.Ops.Ops) * 1e6 / float64(res.MaxClock)
			return res, profile()
		})
	for vi, variant := range variants {
		res := results[vi]
		tb.AddRow(variant, stats.F2(res.Throughput),
			stats.F2(res.Ops.AttemptsPerOp()), stats.F3(res.Ops.NonSpecFraction()))
	}
	return []*stats.Table{tb}
}

// AblationBackoff compares Dice et al.'s lemming-effect mitigation —
// exponential backoff on the TTAS acquire path — against the paper's SCM,
// which prevents the avalanche rather than damping it (Chapter 8 draws
// exactly this contrast).
func AblationBackoff(o Options) []*stats.Table {
	o = o.withDefaults()
	sizes := []int{64, 512, 4096}
	if o.Quick {
		sizes = []int{128}
	}
	tb := &stats.Table{
		Title:  "Ablation — backoff damping vs SCM prevention (10/10/80, 8 threads)",
		Header: []string{"tree size", "HLE TTAS", "HLE Backoff-TTAS", "HLE-SCM TTAS"},
	}
	var groups []dsGroup
	for _, size := range sizes {
		groups = append(groups, dsGroup{
			size: size, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads,
			specs: []harness.SchemeSpec{
				{Scheme: "Standard", Lock: "TTAS"},
				{Scheme: "HLE", Lock: "TTAS"},
				{Scheme: "HLE", Lock: "BackoffTTAS"},
				{Scheme: "HLE-SCM", Lock: "TTAS"},
			},
		})
	}
	byGroup := dsRunGroups(o, groups)
	for gi, size := range sizes {
		res := byGroup[gi]
		base := res["Standard TTAS"].Throughput
		tb.AddRow(stats.SizeLabel(size),
			stats.F2(res["HLE TTAS"].Throughput/base),
			stats.F2(res["HLE BackoffTTAS"].Throughput/base),
			stats.F2(res["HLE-SCM TTAS"].Throughput/base))
	}
	return []*stats.Table{tb}
}
