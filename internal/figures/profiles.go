package figures

import (
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/stamp"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// FigProfiles characterizes every workload's committed transactions — mean
// accesses, read-set lines, and write-set lines — the evidence that the
// re-implemented STAMP applications match the published STAMP
// characterization (vacation long transactions, kmeans tiny ones, ssca2
// minimal sets) and that the data-structure benchmarks span the intended
// spectrum.
func FigProfiles(o Options) []*stats.Table {
	o = o.withDefaults()
	tb := &stats.Table{
		Title:  "Workload transaction profiles (committed transactions under Opt-SLR, 8 threads)",
		Header: []string{"workload", "mean accesses", "read lines", "write lines", "attempts/op"},
	}

	spec := harness.SchemeSpec{Scheme: "Opt-SLR", Lock: "TTAS"}

	// STAMP applications, one independent point each.
	apps := stamp.Apps()
	stampRes := make([]stamp.Result, len(apps))
	cols := make([]*obs.Collector, len(apps))
	harness.ParallelFor(o.Parallel, len(apps), func(ai int) {
		cfg := tsx.DefaultConfig(o.Threads)
		cfg.Seed = o.Seed
		cfg.MemWords = 1 << 19
		cols[ai] = o.attachProfile(&cfg, spec.String())
		res, err := stamp.Run(cfg, spec, apps[ai].Make, o.Threads)
		if err != nil {
			panic(err)
		}
		stampRes[ai] = res
	})
	for ai, app := range apps {
		o.emitProfile("stamp/"+app.Name, cols[ai])
	}
	for ai, app := range apps {
		res := stampRes[ai]
		tb.AddRow(app.Name,
			stats.F2(res.TSX.MeanAccesses()),
			stats.F2(res.TSX.MeanReadLines()),
			stats.F2(res.TSX.MeanWriteLines()),
			stats.F2(res.Ops.AttemptsPerOp()))
	}

	// Data-structure benchmarks at two sizes (plus a hash table) for
	// context.
	groups := []dsGroup{
		{size: 128, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads, specs: []harness.SchemeSpec{spec}},
		{size: 32768, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads, specs: []harness.SchemeSpec{spec}},
		{size: 1024, mix: harness.MixModerate, mk: mkHashTable, threads: o.Threads, specs: []harness.SchemeSpec{spec}},
	}
	labels := []string{"rbtree-" + stats.SizeLabel(128), "rbtree-" + stats.SizeLabel(32768), "hashtable-1K"}
	for gi, resByScheme := range dsRunGroups(o, groups) {
		res := resByScheme[spec.String()]
		tb.AddRow(labels[gi],
			stats.F2(res.TSX.MeanAccesses()),
			stats.F2(res.TSX.MeanReadLines()),
			stats.F2(res.TSX.MeanWriteLines()),
			stats.F2(res.Ops.AttemptsPerOp()))
	}

	return []*stats.Table{tb}
}
