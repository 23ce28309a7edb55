package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/stamp"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// ExtStamp runs the extension STAMP workloads (labyrinth) across schemes.
// Labyrinth copies the maze inside each transaction, so on large grids its
// write set overflows the L1 and every speculative attempt dies on
// capacity. Two findings beyond the paper: (1) on the overflowing grid all
// schemes converge to the serialized fallback — speculation buys nothing —
// and (2) HLE-SCM is actively *harmful* there, because Algorithm 3 retries
// MaxRetries times without consulting the abort status, burning full-length
// doomed transactions; SLR's §5.1 tuning (give up when the status says the
// transaction cannot succeed) sidesteps exactly this. Likely why the
// paper's evaluation omits labyrinth.
func ExtStamp(o Options) []*stats.Table {
	o = o.withDefaults()
	var tables []*stats.Table
	apps := []struct {
		Name string
		Make func(t *tsx.Thread) stamp.App
	}{
		// 40x40 = 200 write-set lines: fits the 512-line L1, speculates.
		{"labyrinth-small", func(t *tsx.Thread) stamp.App { return stamp.NewLabyrinth(40, 40, 16) }},
		// 72x72 = 648 write-set lines: overflows, every speculative
		// attempt dies on capacity, schemes converge on the fallback.
		{"labyrinth-large", func(t *tsx.Thread) stamp.App { return stamp.NewLabyrinth(72, 72, 12) }},
		// The other two STAMP members the paper omits.
		{"yada", func(t *tsx.Thread) stamp.App { return stamp.NewYada(90) }},
		{"bayes", func(t *tsx.Thread) stamp.App { return stamp.NewBayes(48, 96) }},
	}
	specs := []harness.SchemeSpec{
		{Scheme: "Standard", Lock: "TTAS"},
		{Scheme: "HLE", Lock: "TTAS"},
		{Scheme: "HLE-SCM", Lock: "TTAS"},
		{Scheme: "Opt-SLR", Lock: "TTAS"},
	}
	results := make([]stamp.Result, len(apps)*len(specs))
	cols := make([]*obs.Collector, len(results))
	harness.ParallelFor(o.Parallel, len(results), func(i int) {
		app, spec := apps[i/len(specs)], specs[i%len(specs)]
		cfg := tsx.DefaultConfig(o.Threads)
		cfg.Seed = o.Seed
		cfg.MemWords = 1 << 19
		cols[i] = o.attachProfile(&cfg, spec.String())
		res, err := stamp.Run(cfg, spec, app.Make, o.Threads)
		if err != nil {
			panic(fmt.Sprintf("figures: %s under %v: %v", app.Name, spec, err))
		}
		results[i] = res
	})
	for i := range cols {
		o.emitProfile(fmt.Sprintf("%s/%s", apps[i/len(specs)].Name, specs[i%len(specs)].Scheme), cols[i])
	}
	for ai, app := range apps {
		tb := &stats.Table{
			Title: fmt.Sprintf("Extension — STAMP %s, %d threads",
				app.Name, o.Threads),
			Header: []string{"scheme", "norm runtime", "attempts/op", "non-spec", "capacity aborts"},
		}
		base := float64(results[ai*len(specs)].Runtime) // Standard is spec 0
		for si, spec := range specs {
			res := results[ai*len(specs)+si]
			tb.AddRow(spec.Scheme,
				stats.F2(float64(res.Runtime)/base),
				stats.F2(res.Ops.AttemptsPerOp()),
				stats.F3(res.Ops.NonSpecFraction()),
				stats.U(res.TSX.Aborted[tsx.CauseCapacityRead]+res.TSX.Aborted[tsx.CauseCapacityWrite]))
		}
		tables = append(tables, tb)
	}
	return tables
}
