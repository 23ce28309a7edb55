package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/stamp"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// stampSchemes is the §5.3 matrix for one lock, in Figure 5.4's order.
func stampSchemes(lock string) []harness.SchemeSpec {
	return []harness.SchemeSpec{
		{Scheme: "Standard", Lock: lock},
		{Scheme: "HLE", Lock: lock},
		{Scheme: "HLE-SCM", Lock: lock},
		{Scheme: "Pes-SLR", Lock: lock},
		{Scheme: "Opt-SLR", Lock: lock},
		{Scheme: "Opt-SLR-SCM", Lock: lock},
	}
}

// Fig54 reproduces Figure 5.4: for each STAMP application, the runtime of
// every scheme normalized to the plain non-speculative lock (panes a and
// b), plus execution attempts per critical section and the non-speculative
// fraction (panes c and d).
func Fig54(o Options) []*stats.Table {
	o = o.withDefaults()
	locks := []string{"TTAS", "MCS"}
	apps := stamp.Apps()

	// Flatten (lock × app × scheme) into independent points: stamp.Run
	// builds a fresh machine per call, so each point is self-contained.
	type stampPoint struct {
		lock, app int
		spec      harness.SchemeSpec
	}
	var pts []stampPoint
	for li := range locks {
		for ai := range apps {
			for _, spec := range stampSchemes(locks[li]) {
				pts = append(pts, stampPoint{li, ai, spec})
			}
		}
	}
	results := make([]stamp.Result, len(pts))
	cols := make([]*obs.Collector, len(pts))
	harness.ParallelFor(o.Parallel, len(pts), func(i int) {
		p := pts[i]
		cfg := tsx.DefaultConfig(o.Threads)
		cfg.Seed = o.Seed
		cfg.MemWords = 1 << 19
		cols[i] = o.attachProfile(&cfg, p.spec.String())
		res, err := stamp.Run(cfg, p.spec, apps[p.app].Make, o.Threads)
		if err != nil {
			panic(fmt.Sprintf("figures: %s under %v failed validation: %v", apps[p.app].Name, p.spec, err))
		}
		results[i] = res
	})
	for i, p := range pts {
		o.emitProfile(fmt.Sprintf("%s/%s/%s", locks[p.lock], apps[p.app].Name, p.spec.Scheme), cols[i])
	}
	byKey := map[[2]int]map[string]stamp.Result{}
	for i, p := range pts {
		key := [2]int{p.lock, p.app}
		if byKey[key] == nil {
			byKey[key] = map[string]stamp.Result{}
		}
		byKey[key][p.spec.Scheme] = results[i]
	}

	var tables []*stats.Table
	for li, lock := range locks {
		timeTb := &stats.Table{
			Title: fmt.Sprintf("Fig 5.4(a/b) — STAMP runtime normalized to the standard %s lock, %d threads",
				lock, o.Threads),
			Header: []string{"test", "HLE", "HLE-SCM", "Pes-SLR", "Opt-SLR", "Opt-SLR-SCM"},
		}
		attTb := &stats.Table{
			Title:  fmt.Sprintf("Fig 5.4(c/d) — STAMP attempts per critical section, %s lock", lock),
			Header: []string{"test", "HLE", "HLE-SCM", "Pes-SLR", "Opt-SLR", "Opt-SLR-SCM"},
		}
		nsTb := &stats.Table{
			Title:  fmt.Sprintf("Fig 5.4(c/d) — STAMP non-speculative fraction, %s lock", lock),
			Header: []string{"test", "HLE", "HLE-SCM", "Pes-SLR", "Opt-SLR", "Opt-SLR-SCM"},
		}
		for ai, app := range apps {
			results := byKey[[2]int{li, ai}]
			base := float64(results["Standard"].Runtime)
			timeTb.AddRow(app.Name,
				stats.F2(float64(results["HLE"].Runtime)/base),
				stats.F2(float64(results["HLE-SCM"].Runtime)/base),
				stats.F2(float64(results["Pes-SLR"].Runtime)/base),
				stats.F2(float64(results["Opt-SLR"].Runtime)/base),
				stats.F2(float64(results["Opt-SLR-SCM"].Runtime)/base))
			attTb.AddRow(app.Name,
				stats.F2(results["HLE"].Ops.AttemptsPerOp()),
				stats.F2(results["HLE-SCM"].Ops.AttemptsPerOp()),
				stats.F2(results["Pes-SLR"].Ops.AttemptsPerOp()),
				stats.F2(results["Opt-SLR"].Ops.AttemptsPerOp()),
				stats.F2(results["Opt-SLR-SCM"].Ops.AttemptsPerOp()))
			nsTb.AddRow(app.Name,
				stats.F3(results["HLE"].Ops.NonSpecFraction()),
				stats.F3(results["HLE-SCM"].Ops.NonSpecFraction()),
				stats.F3(results["Pes-SLR"].Ops.NonSpecFraction()),
				stats.F3(results["Opt-SLR"].Ops.NonSpecFraction()),
				stats.F3(results["Opt-SLR-SCM"].Ops.NonSpecFraction()))
		}
		tables = append(tables, timeTb, attTb, nsTb)
	}
	return tables
}
