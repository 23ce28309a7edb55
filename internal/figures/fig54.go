package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/stamp"
	"hle/internal/stats"
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

	// Flatten (lock × app × scheme) into independent points: each STAMP
	// point builds a fresh machine, so it is self-contained.
	type stampCoord struct {
		lock, app int
		spec      harness.SchemeSpec
	}
	var pts []stampCoord
	for li := range locks {
		for ai := range apps {
			for _, spec := range stampSchemes(locks[li]) {
				pts = append(pts, stampCoord{li, ai, spec})
			}
		}
	}
	results, _ := measure(o, len(pts), func(i int) string {
		p := pts[i]
		return fmt.Sprintf("%s/%s/%s", locks[p.lock], apps[p.app].Name, p.spec.Scheme)
	}, nil, func(i int, prof *obs.Options) (stamp.Result, *obs.Profile) {
		p := pts[i]
		return stampPoint(o, apps[p.app], p.spec, mem.Layout{}, prof, p.spec.String())
	})
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
