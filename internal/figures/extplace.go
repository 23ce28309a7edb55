package figures

import (
	"fmt"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/shard"
	"hle/internal/stamp"
	"hle/internal/stats"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

// placeRegimes are the placement regimes the sweep ablates: the four
// allocator policies plus the heatmap-driven auto-pad pass (packed layout
// re-laid-out from a profiling burst's conflict heatmap).
var placeRegimes = []string{"packed", "padded", "colored", "arena", "auto-pad"}

// placeSchemes are the schemes each (workload, regime) cell measures:
// the plain-lock baseline (placement should barely matter — no
// speculation, no conflict aborts) and elision (where placement-induced
// false sharing turns into data-line aborts).
var placeSchemes = []string{"Standard", "HLE"}

// PlacePoint is one measured point of the placement sweep. Service
// workloads report throughput; STAMP apps report fixed-work runtime.
type PlacePoint struct {
	Workload      string
	Policy        string
	Scheme        string
	Throughput    float64
	Runtime       uint64
	Aborts        uint64
	DataConflicts uint64
}

// PlaceAutoPad records one workload's profile→layout trajectory: what the
// burst planned and how far the plan moved the measured run's data-line
// conflict aborts relative to packed.
type PlaceAutoPad struct {
	Workload     string
	PlanLines    []int
	PackedData   uint64
	AutoPadData  uint64
	ReductionPct float64
}

// PlaceBench is the structured result of one placement sweep: every
// point and the auto-pad trajectories, for callers that assert on the
// numbers rather than parse the rendered tables.
type PlaceBench struct {
	Points  []PlacePoint
	AutoPad []PlaceAutoPad
}

// placeAxes returns the workloads at the requested scale. The store's
// shard structures label their lines; rbtree/hashtable nodes are
// unlabeled, so their heat lands in the "?" bucket — placement attribution
// must survive both.
func placeAxes(o Options) (workloads []string, stampApps []string) {
	workloads = []string{"rbtree", "hashtable", "store"}
	stampApps = []string{"intruder", "vacation_low"}
	if o.Quick {
		workloads = []string{"rbtree", "store"}
		stampApps = []string{"intruder"}
	}
	return workloads, stampApps
}

// placeLayout maps a regime index to the machine layout of its template
// (auto-pad's layout is derived at run time from the burst instead).
func placeLayout(pi int) mem.Layout {
	return mem.Layout{Placement: mem.Placement(pi)}
}

// checkAttribution enforces the abort-attribution invariant on a profiled
// point: every abort classified exactly once, under every placement
// policy. A violation is a simulator bug, not a measurement.
func checkAttribution(where string, p *obs.Profile) {
	if p == nil {
		return
	}
	if p.CauseSum() != p.TotalAborts || p.TotalAborts != p.EngineAborts {
		panic(fmt.Sprintf("figures: %s: abort attribution broken: causes %d, observed %d, engine %d",
			where, p.CauseSum(), p.TotalAborts, p.EngineAborts))
	}
}

// ExtPlace ablates memory placement: STAMP + service workloads × placement
// policy × scheme, with per-regime abort attribution and the auto-pad
// profile→layout trajectory.
func ExtPlace(o Options) []*stats.Table {
	_, tables := PlaceSweep(o)
	return tables
}

// PlaceSweep runs the placement sweep and returns both the structured
// result and the rendered tables.
func PlaceSweep(o Options) (*PlaceBench, []*stats.Table) {
	o = o.withDefaults()
	workloads, stampApps := placeAxes(o)
	const (
		dsSize    = 128
		storeKeys = 256
		shards    = 8
		storeSkew = 1.2
	)

	// One warm template per (workload, regime). The store templates are
	// forked once up front to expose their Data handle — each regime's
	// store lives at different addresses, so each needs its own binding.
	// The auto-pad template is derived from the packed one by a serial
	// profiling burst, so the whole template matrix is deterministic
	// before any point fans out.
	type cell struct {
		tmpl *harness.WarmTemplate
		data *shard.Data
	}
	mkTemplate := func(w string, l mem.Layout) *harness.WarmTemplate {
		switch w {
		case "rbtree", "hashtable":
			cfg := machineCfg(o, dsSize)
			cfg.Layout = l
			mk := mkRBTree
			if w == "hashtable" {
				mk = mkHashTable
			}
			return &harness.WarmTemplate{
				Machine: cfg,
				MkWorkload: func(t *tsxThread) harness.Workload {
					return mk(t, dsSize, harness.MixExtensive)
				},
			}
		case "store":
			cfg := machineCfg(o, 4*storeKeys)
			cfg.MemWords = storeKeys*64 + 1<<17
			cfg.Layout = l
			return &harness.WarmTemplate{
				Machine: cfg,
				MkWorkload: func(t *tsxThread) harness.Workload {
					return traffic.New(t, shard.DataConfig{Shards: shards, Backend: shard.RBTree},
						traffic.Spec{Keys: storeKeys, Mix: harness.MixModerate, ZipfS: storeSkew})
				},
			}
		}
		panic("figures: unknown placement workload " + w)
	}
	storeScheme := func(data *shard.Data, scheme string) func(t *tsxThread) core.Scheme {
		maker := shard.SchemeMakerByName(scheme)
		return func(t *tsxThread) core.Scheme {
			return traffic.Route(shard.Bind(t, data, shard.StoreConfig{MkScheme: maker}))
		}
	}

	bench := &PlaceBench{}
	cells := make(map[[2]int]cell)
	for wi, w := range workloads {
		for pi := range placeRegimes[:4] {
			c := cell{tmpl: mkTemplate(w, placeLayout(pi))}
			if w == "store" {
				_, wk := c.tmpl.Fork()
				c.data = wk.(*traffic.Workload).Data()
			}
			cells[[2]int{wi, pi}] = c
		}
		// Regime 4: the auto-pad pass, seeded from the packed template.
		packed := cells[[2]int{wi, 0}]
		apCfg := harness.AutoPadConfig{
			Scheme:  harness.SchemeSpec{Scheme: "HLE", Lock: "MCS"},
			Threads: o.Threads,
			Burst:   o.Budget / 2,
			Seed:    harness.DeriveSeed(o.Seed, wi, 101),
		}
		if w == "store" {
			apCfg.MkScheme = func(t *tsxThread) core.Scheme {
				return storeScheme(packed.data, "HLE")(t)
			}
		}
		padded, report := harness.AutoPad(packed.tmpl, apCfg)
		c := cell{tmpl: padded}
		if w == "store" {
			_, wk := padded.Fork()
			c.data = wk.(*traffic.Workload).Data()
		}
		cells[[2]int{wi, 4}] = c
		bench.AutoPad = append(bench.AutoPad, PlaceAutoPad{
			Workload:  w,
			PlanLines: report.PlanLines,
		})
	}

	// The measured grid: every point profiles (collection is passive, so
	// measurements and tables are byte-identical with -profile on or off)
	// because the attribution columns and heatmaps read the profiles.
	type coord struct{ wi, pi, ki int }
	var points []harness.PointSpec
	var coords []coord
	for wi, w := range workloads {
		for pi := range placeRegimes {
			c := cells[[2]int{wi, pi}]
			for ki, scheme := range placeSchemes {
				cfg := harness.Config{Threads: o.Threads, CycleBudget: o.Budget, Warmup: o.Budget}
				cfg.Profile = o.Profile
				if cfg.Profile == nil {
					cfg.Profile = &obs.Options{}
				}
				p := harness.PointSpec{
					Warm: c.tmpl,
					Seed: harness.DeriveSeed(o.Seed, wi, pi, ki),
					Runs: o.Runs,
					Cfg:  cfg,
				}
				if w == "store" {
					p.MkScheme = storeScheme(c.data, scheme)
				} else {
					p.Scheme = harness.SchemeSpec{Scheme: scheme, Lock: "MCS"}
				}
				points = append(points, p)
				coords = append(coords, coord{wi, pi, ki})
			}
		}
	}
	results := harness.RunPoints(o.Parallel, points)
	if o.Profile != nil && o.ProfileSink != nil {
		for pi, r := range results {
			if r.Profile != nil {
				c := coords[pi]
				o.ProfileSink(fmt.Sprintf("%s/%s/%s",
					workloads[c.wi], placeRegimes[c.pi], placeSchemes[c.ki]), r.Profile)
			}
		}
	}
	byPoint := make(map[coord]harness.Result, len(results))
	for pi, r := range results {
		c := coords[pi]
		byPoint[c] = r
		checkAttribution(fmt.Sprintf("%s/%s/%s",
			workloads[c.wi], placeRegimes[c.pi], placeSchemes[c.ki]), r.Profile)
	}

	// STAMP under placement: each app runs the fixed workload to
	// completion under HLE/MCS per regime. The packed run doubles as the
	// auto-pad burst: its full-heatmap profile plans the padding.
	stampSpec := harness.SchemeSpec{Scheme: "HLE", Lock: "MCS"}
	apps := stamp.Apps()
	appMaker := func(name string) func(t *tsxThread) stamp.App {
		for _, a := range apps {
			if a.Name == name {
				return a.Make
			}
		}
		panic("figures: unknown STAMP app " + name)
	}
	stampRun := func(name string, l mem.Layout, label string) (stamp.Result, *obs.Profile) {
		cfg := tsx.DefaultConfig(o.Threads)
		cfg.Seed = o.Seed
		cfg.MemWords = 1 << 19
		cfg.Layout = l
		col := obs.New(obs.Options{TopLines: -1})
		col.SetLabel(label)
		cfg.Observer = col
		res, err := stamp.Run(cfg, stampSpec, appMaker(name), o.Threads)
		if err != nil {
			panic(fmt.Sprintf("figures: ext-place %s: %v", label, err))
		}
		prof := col.Profile()
		prof.EngineAborts = res.TSX.TotalAborts()
		checkAttribution(label, prof)
		if o.Profile != nil && o.ProfileSink != nil {
			o.ProfileSink(label, prof)
		}
		return res, prof
	}

	type stampCell struct {
		res  stamp.Result
		prof *obs.Profile
		plan []int
	}
	grid := make([]stampCell, len(stampApps)*len(placeRegimes))
	at := func(si, pi int) *stampCell { return &grid[si*len(placeRegimes)+pi] }
	// Phase 1: packed runs, whose heatmaps seed the auto-pad plans.
	harness.ParallelFor(o.Parallel, len(stampApps), func(si int) {
		c := at(si, 0)
		c.res, c.prof = stampRun(stampApps[si], placeLayout(0),
			"stamp/"+stampApps[si]+"/packed")
		for _, l := range c.prof.Lines {
			if len(c.plan) >= harness.DefaultAutoPadTopK {
				break
			}
			if !l.LockLine && l.Count > 0 {
				c.plan = append(c.plan, l.Line)
			}
		}
	})
	// Phase 2: the remaining regimes, fanned out over (app, regime).
	harness.ParallelFor(o.Parallel, len(stampApps)*(len(placeRegimes)-1), func(i int) {
		si, pi := i/(len(placeRegimes)-1), i%(len(placeRegimes)-1)+1
		l := placeLayout(pi)
		if placeRegimes[pi] == "auto-pad" {
			plan := make(map[int]bool)
			for _, line := range at(si, 0).plan {
				plan[line] = true
			}
			l = mem.Layout{}.WithPadLines(plan)
		}
		c := at(si, pi)
		c.res, c.prof = stampRun(stampApps[si], l,
			"stamp/"+stampApps[si]+"/"+placeRegimes[pi])
	})

	// Assembly, all in declaration order.
	dataConf := func(p *obs.Profile) uint64 { return p.Cause(obs.ClassConflictDataLine) }

	sweep := &stats.Table{
		Title: fmt.Sprintf("Extension — service workloads × placement policy, %d threads (MCS lock)", o.Threads),
		Header: []string{"workload", "policy", "Standard ops/Mc", "HLE ops/Mc",
			"HLE aborts", "HLE data-conf"},
	}
	for wi, w := range workloads {
		for pi, policy := range placeRegimes {
			row := []string{w, policy}
			var hle harness.Result
			for ki, scheme := range placeSchemes {
				r := byPoint[coord{wi, pi, ki}]
				bench.Points = append(bench.Points, PlacePoint{
					Workload: w, Policy: policy, Scheme: scheme,
					Throughput:    r.Throughput,
					Aborts:        r.Profile.TotalAborts,
					DataConflicts: dataConf(r.Profile),
				})
				row = append(row, stats.F2(r.Throughput))
				if ki == 1 {
					hle = r
				}
			}
			sweep.AddRow(append(row,
				stats.I(int(hle.Profile.TotalAborts)), stats.I(int(dataConf(hle.Profile))))...)
		}
	}

	attr := &stats.Table{
		Title: "Placement abort attribution (HLE): where each policy's aborts land",
		Header: []string{"workload", "policy", "lock-line", "data-line",
			"capacity", "other", "hottest"},
	}
	for wi, w := range workloads {
		for pi, policy := range placeRegimes {
			p := byPoint[coord{wi, pi, 1}].Profile
			lock := p.Cause(obs.ClassConflictLockLine)
			data := dataConf(p)
			capac := p.Cause(obs.ClassCapacityWrite) + p.Cause(obs.ClassCapacityRead)
			other := p.TotalAborts - lock - data - capac
			hot := "-"
			if hp := p.HeatByPrefix(); len(hp) > 0 {
				hot = fmt.Sprintf("%s:%d", hp[0].Prefix, hp[0].Count)
			}
			attr.AddRow(w, policy, stats.I(int(lock)), stats.I(int(data)),
				stats.I(int(capac)), stats.I(int(other)), hot)
		}
	}

	st := &stats.Table{
		Title:  fmt.Sprintf("STAMP × placement (HLE MCS, %d threads): fixed-work runtime", o.Threads),
		Header: []string{"app", "policy", "runtime Mc", "aborts", "data-conf"},
	}
	for si, app := range stampApps {
		for pi, policy := range placeRegimes {
			c := at(si, pi)
			bench.Points = append(bench.Points, PlacePoint{
				Workload: "stamp/" + app, Policy: policy, Scheme: "HLE",
				Runtime:       c.res.Runtime,
				Aborts:        c.prof.TotalAborts,
				DataConflicts: dataConf(c.prof),
			})
			st.AddRow(app, policy, stats.F2(float64(c.res.Runtime)/1e6),
				stats.I(int(c.prof.TotalAborts)), stats.I(int(dataConf(c.prof))))
		}
	}

	// The trajectory: packed → auto-pad, per workload, on the measured
	// (not burst) runs.
	for i := range workloads {
		e := &bench.AutoPad[i]
		e.PackedData = dataConf(byPoint[coord{i, 0, 1}].Profile)
		e.AutoPadData = dataConf(byPoint[coord{i, 4, 1}].Profile)
	}
	for si, app := range stampApps {
		bench.AutoPad = append(bench.AutoPad, PlaceAutoPad{
			Workload:    "stamp/" + app,
			PlanLines:   at(si, 0).plan,
			PackedData:  dataConf(at(si, 0).prof),
			AutoPadData: dataConf(at(si, len(placeRegimes)-1).prof),
		})
	}
	traj := &stats.Table{
		Title:  "Auto-pad trajectory: data-line conflict aborts, packed vs heatmap-driven re-layout",
		Header: []string{"workload", "plan lines", "packed", "auto-pad", "reduction"},
	}
	for i := range bench.AutoPad {
		e := &bench.AutoPad[i]
		if e.PackedData > 0 {
			e.ReductionPct = 100 * (1 - float64(e.AutoPadData)/float64(e.PackedData))
		}
		traj.AddRow(e.Workload, stats.I(len(e.PlanLines)),
			stats.I(int(e.PackedData)), stats.I(int(e.AutoPadData)),
			fmt.Sprintf("%.1f%%", e.ReductionPct))
	}

	return bench, []*stats.Table{sweep, attr, st, traj}
}
