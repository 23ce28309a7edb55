package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// Fig31 reproduces Figure 3.1: under 8 threads and the moderate 10/10/80
// mix, for each tree size report (a) the HLE speedup over the standard
// version of the same lock, (b) average execution attempts per critical
// section, and (c) the fraction of operations completing non-speculatively
// — for a TTAS and an MCS lock. The avalanche shows up as MCS pinned near
// attempts≈2 and non-speculative≈1 while TTAS recovers.
func Fig31(o Options) []*stats.Table {
	o = o.withDefaults()
	speed := &stats.Table{
		Title:  "Fig 3.1 (top) — HLE speedup over the standard lock, 10/10/80, 8 threads",
		Header: []string{"tree size", "TTAS", "MCS"},
	}
	work := &stats.Table{
		Title:  "Fig 3.1 (middle) — average execution attempts per critical section",
		Header: []string{"tree size", "TTAS total work", "MCS total work"},
	}
	frac := &stats.Table{
		Title:  "Fig 3.1 (bottom) — fraction of operations completing non-speculatively",
		Header: []string{"tree size", "TTAS non-spec", "MCS non-spec"},
	}
	var groups []dsGroup
	for _, size := range treeSizes(o) {
		groups = append(groups, dsGroup{
			size: size, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads,
			specs: []harness.SchemeSpec{
				{Scheme: "Standard", Lock: "TTAS"},
				{Scheme: "HLE", Lock: "TTAS"},
				{Scheme: "Standard", Lock: "MCS"},
				{Scheme: "HLE", Lock: "MCS"},
			},
		})
	}
	byGroup := dsRunGroups(o, groups)
	for gi, size := range treeSizes(o) {
		res := byGroup[gi]
		ttas := res["HLE TTAS"]
		mcs := res["HLE MCS"]
		speed.AddRow(stats.SizeLabel(size),
			stats.F2(ttas.Throughput/res["Standard TTAS"].Throughput),
			stats.F2(mcs.Throughput/res["Standard MCS"].Throughput))
		work.AddRow(stats.SizeLabel(size),
			stats.F2(ttas.Ops.AttemptsPerOp()),
			stats.F2(mcs.Ops.AttemptsPerOp()))
		frac.AddRow(stats.SizeLabel(size),
			stats.F3(ttas.Ops.NonSpecFraction()),
			stats.F3(mcs.Ops.NonSpecFraction()))
	}
	return []*stats.Table{speed, work, frac}
}

// Fig33 reproduces Figure 3.3: the run is divided into time slots
// (1 millisecond on the paper's machine; a fixed virtual-cycle slot here)
// and each slot reports throughput normalized to the run's mean, plus the
// slot's non-speculative fraction. MCS flatlines fully serialized; TTAS
// fluctuates, with throughput dips aligned to serialization bursts.
func Fig33(o Options) []*stats.Table {
	o = o.withDefaults()
	const size = 64
	budget := o.Budget * 2
	slot := budget / 50

	locks := []string{"MCS", "TTAS"}
	warm := &harness.WarmTemplate{
		Machine: machineCfg(o, size),
		MkWorkload: func(t *tsx.Thread) harness.Workload {
			return mkRBTree(t, size, harness.MixModerate)
		},
	}
	var points []harness.PointSpec
	for _, lock := range locks {
		points = append(points, harness.PointSpec{
			Warm:   warm,
			Scheme: harness.SchemeSpec{Scheme: "HLE", Lock: lock},
			Cfg: harness.Config{
				Threads:     o.Threads,
				CycleBudget: budget,
				SliceCycles: slot,
			},
		})
	}
	results := measureSpecs(o, points, func(i int) string { return "HLE " + locks[i] }, nil)

	var tables []*stats.Table
	for li, lock := range locks {
		res := results[li]
		norm := res.Timeline.NormalizedOps()
		fracs := res.Timeline.NonSpecFractions()
		// The final slot is partial (threads stop mid-slot at the
		// budget); drop it from the display series.
		if len(norm) > 1 {
			norm = norm[:len(norm)-1]
			fracs = fracs[:len(fracs)-1]
		}
		spark := &stats.Table{
			Title: fmt.Sprintf("Fig 3.3 — serialization dynamics, HLE %s lock, size %d, 10/10/80, %d threads",
				lock, size, o.Threads),
			Header: []string{"series", "per-slot sparkline", "mean", "min", "max"},
		}
		spark.AddRow("normalized ops", stats.Sparkline(norm, 2),
			stats.F2(mean(norm)), stats.F2(minOf(norm)), stats.F2(maxOf(norm)))
		spark.AddRow("non-spec frac", stats.Sparkline(fracs, 1),
			stats.F3(mean(fracs)), stats.F3(minOf(fracs)), stats.F3(maxOf(fracs)))
		tables = append(tables, spark)
	}
	return tables
}

// Fig34 reproduces Figure 3.4: the HLE speedup over the standard version of
// the same lock, for the three contention levels (lookups only, 10/10/80,
// 50/50) across tree sizes, for TTAS and MCS.
func Fig34(o Options) []*stats.Table {
	o = o.withDefaults()
	mixes := []harness.Mix{harness.MixLookupOnly, harness.MixModerate, harness.MixExtensive}
	var groups []dsGroup
	for _, mix := range mixes {
		for _, size := range treeSizes(o) {
			groups = append(groups, dsGroup{
				size: size, mix: mix, mk: mkRBTree, threads: o.Threads,
				specs: []harness.SchemeSpec{
					{Scheme: "Standard", Lock: "TTAS"},
					{Scheme: "HLE", Lock: "TTAS"},
					{Scheme: "Standard", Lock: "MCS"},
					{Scheme: "HLE", Lock: "MCS"},
				},
			})
		}
	}
	byGroup := dsRunGroups(o, groups)

	var tables []*stats.Table
	gi := 0
	for _, mix := range mixes {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Fig 3.4 — HLE speedup vs standard lock, mix %s, %d threads", mix, o.Threads),
			Header: []string{"tree size", "TTAS", "MCS"},
		}
		for _, size := range treeSizes(o) {
			res := byGroup[gi]
			gi++
			tb.AddRow(stats.SizeLabel(size),
				stats.F2(res["HLE TTAS"].Throughput/res["Standard TTAS"].Throughput),
				stats.F2(res["HLE MCS"].Throughput/res["Standard MCS"].Throughput))
		}
		tables = append(tables, tb)
	}
	return tables
}

// Fig35 reproduces Figure 3.5: HLE-prefix-based elision versus the
// RTM-based equivalent the paper measures with, both normalized to the
// standard lock. The two mechanisms must track each other closely, which is
// what justified the paper's measurement methodology.
func Fig35(o Options) []*stats.Table {
	o = o.withDefaults()
	mixes := []harness.Mix{harness.MixLookupOnly, harness.MixModerate, harness.MixExtensive}
	var groups []dsGroup
	for _, mix := range mixes {
		for _, size := range treeSizes(o) {
			groups = append(groups, dsGroup{
				size: size, mix: mix, mk: mkRBTree, threads: o.Threads,
				specs: []harness.SchemeSpec{
					{Scheme: "Standard", Lock: "TTAS"},
					{Scheme: "HLE", Lock: "TTAS"},
					{Scheme: "RTM-LE", Lock: "TTAS"},
					{Scheme: "Standard", Lock: "MCS"},
					{Scheme: "HLE", Lock: "MCS"},
					{Scheme: "RTM-LE", Lock: "MCS"},
				},
			})
		}
	}
	byGroup := dsRunGroups(o, groups)

	var tables []*stats.Table
	gi := 0
	for _, mix := range mixes {
		tb := &stats.Table{
			Title: fmt.Sprintf("Fig 3.5 — HLE-based vs RTM-based elision, mix %s, %d threads",
				mix, o.Threads),
			Header: []string{"tree size", "HLE TTAS", "RTM TTAS", "HLE MCS", "RTM MCS"},
		}
		for _, size := range treeSizes(o) {
			res := byGroup[gi]
			gi++
			tb.AddRow(stats.SizeLabel(size),
				stats.F2(res["HLE TTAS"].Throughput/res["Standard TTAS"].Throughput),
				stats.F2(res["RTM-LE TTAS"].Throughput/res["Standard TTAS"].Throughput),
				stats.F2(res["HLE MCS"].Throughput/res["Standard MCS"].Throughput),
				stats.F2(res["RTM-LE MCS"].Throughput/res["Standard MCS"].Throughput))
		}
		tables = append(tables, tb)
	}
	return tables
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
