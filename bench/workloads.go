package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hle/internal/core"
	"hle/internal/explore"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

// threads is the simulated machine width of every machine workload: the
// paper's 8-thread Core i7-4770.
const threads = 8

// workload is one benchmark workload: a fixed list of units (experiment
// points or model-checking configurations) that a pass runs to completion.
// BENCHMARK.json says why each workload was chosen.
type workload struct {
	name string
	// seedFree marks workloads whose units ignore the seed, so the pinned
	// digests hold at every seed rather than only the pinned one.
	seedFree bool
	// setup builds what the measured phase needs (populated templates, or
	// a warm-up exploration) and returns the units. Spans it records hang
	// under parent.
	setup func(seed int64, tr *tracer, parent int) []unit
}

// unit is one independent piece of a workload: exactly one of point and
// cfg is set.
type unit struct {
	label string
	point *harness.PointSpec
	cfg   *explore.Config
	// transitions, when set, counts the adaptive controllers' scheme
	// transitions in the point's run.
	transitions func() int
}

// workloads is the registry; BENCHMARK.json must list the same names.
var workloads = []*workload{
	{
		name:  "tree-contended",
		setup: treeContended,
	},
	{
		name:  "tree-large",
		setup: treeLarge,
	},
	{
		name:  "shard-service",
		setup: shardService,
	},
	{
		name:     "explore-battery",
		seedFree: true,
		setup:    exploreBattery,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Run sizes. Each pass must fit several times into one --seconds window on
// a 2-CPU host, so that a run reports medians over passes.
const (
	contendedCycles = 350_000
	largeCycles     = 500_000
	shardCycles     = 400_000
)

// machineConfig mirrors the figure generators' data-structure machine: the
// paper's 8-thread testbed with memory sized to the element count.
func machineConfig(seed int64, elems int) tsx.Config {
	cfg := tsx.DefaultConfig(threads)
	cfg.Seed = seed
	cfg.MemWords = elems*16 + 1<<16
	return cfg
}

// runConfig is the measurement window: a warmup of the same length as the
// measured budget, as the figures use, so the avalanche transient is
// skipped. The livelock watchdog turns a run in which no thread completes
// an operation for a whole window into a reported failure.
func runConfig(cycles uint64) harness.Config {
	return harness.Config{
		Threads:     threads,
		CycleBudget: cycles,
		Warmup:      cycles,
		Watchdog:    &harness.WatchdogConfig{LivelockWindow: cycles},
	}
}

// warmTemplates builds one warm template per workload constructor and
// forks each once, so population and checkpointing happen in set-up and
// every measured point only copies the checkpoint. The returned workloads
// are the templates' shared handles.
func warmTemplates(tr *tracer, parent int, cfgs []tsx.Config, mk []func(t *tsx.Thread) harness.Workload) ([]*harness.WarmTemplate, []harness.Workload) {
	tmpls := make([]*harness.WarmTemplate, len(cfgs))
	ws := make([]harness.Workload, len(cfgs))
	for i := range cfgs {
		tmpls[i] = &harness.WarmTemplate{Machine: cfgs[i], MkWorkload: mk[i]}
		sp := tr.begin("harness.populate", "", parent)
		_, ws[i] = tmpls[i].Fork()
		tr.end(sp)
	}
	return tmpls, ws
}

func rbtreeMaker(size int, mix harness.Mix) func(t *tsx.Thread) harness.Workload {
	return func(t *tsx.Thread) harness.Workload { return harness.NewRBTree(t, size, mix) }
}

func treeContended(seed int64, tr *tracer, parent int) []unit {
	sizes := []int{8, 128, 2048}
	schemes := []string{"Standard", "HLE", "HLE-SCM", "RTM-LE", "Opt-SLR-SCM"}
	lockNames := []string{"TTAS", "MCS"}
	var cfgs []tsx.Config
	var mks []func(t *tsx.Thread) harness.Workload
	for _, size := range sizes {
		cfgs = append(cfgs, machineConfig(seed, size))
		mks = append(mks, rbtreeMaker(size, harness.MixExtensive))
	}
	tmpls, _ := warmTemplates(tr, parent, cfgs, mks)
	var units []unit
	for gi, size := range sizes {
		for si, scheme := range schemes {
			for li, lock := range lockNames {
				units = append(units, unit{
					label: fmt.Sprintf("rbtree-%d/%s/%s", size, scheme, lock),
					point: &harness.PointSpec{
						Warm:   tmpls[gi],
						Scheme: harness.SchemeSpec{Scheme: scheme, Lock: lock},
						Seed:   harness.DeriveSeed(seed, gi, si, li),
						Cfg:    runConfig(contendedCycles),
					},
				})
			}
		}
	}
	return units
}

func treeLarge(seed int64, tr *tracer, parent int) []unit {
	sizes := []int{32768, 131072}
	mixes := []harness.Mix{harness.MixLookupOnly, harness.MixModerate}
	schemes := []string{"Standard", "HLE", "HLE-SCM"}
	var cfgs []tsx.Config
	var mks []func(t *tsx.Thread) harness.Workload
	var names []string
	for _, size := range sizes {
		for _, mix := range mixes {
			cfgs = append(cfgs, machineConfig(seed, size))
			mks = append(mks, rbtreeMaker(size, mix))
			names = append(names, fmt.Sprintf("rbtree-%d-%s", size, mix))
		}
	}
	tmpls, _ := warmTemplates(tr, parent, cfgs, mks)
	var units []unit
	for gi := range tmpls {
		for si, scheme := range schemes {
			units = append(units, unit{
				label: fmt.Sprintf("%s/%s/MCS", names[gi], scheme),
				point: &harness.PointSpec{
					Warm:   tmpls[gi],
					Scheme: harness.SchemeSpec{Scheme: scheme, Lock: "MCS"},
					Seed:   harness.DeriveSeed(seed, gi, si),
					Cfg:    runConfig(largeCycles),
				},
			})
		}
	}
	return units
}

func shardService(seed int64, tr *tracer, parent int) []unit {
	const keys = 512
	shardCounts := []int{1, 8}
	skews := []float64{0, 1.2}
	mixes := []harness.Mix{harness.MixModerate, harness.MixExtensive}
	schemes := []string{"Standard", "HLE-SCM", "Adaptive"}
	var cfgs []tsx.Config
	var mks []func(t *tsx.Thread) harness.Workload
	var names []string
	for _, mix := range mixes {
		for _, skew := range skews {
			for _, shards := range shardCounts {
				cfg := machineConfig(seed, 4*keys)
				cfg.MemWords = keys*64 + 1<<17
				spec := traffic.Spec{Keys: keys, Mix: mix, ZipfS: skew, Seed: seed}
				dcfg := shard.DataConfig{Shards: shards, Backend: shard.RBTree}
				cfgs = append(cfgs, cfg)
				mks = append(mks, func(t *tsx.Thread) harness.Workload { return traffic.New(t, dcfg, spec) })
				names = append(names, fmt.Sprintf("%s/z%.1f/s%d", mix, skew, shards))
			}
		}
	}
	tmpls, ws := warmTemplates(tr, parent, cfgs, mks)
	var units []unit
	for gi := range tmpls {
		// Stores bind to the template's Data after the fork: the
		// structure's addresses are the same in every fork of the image.
		data := ws[gi].(*traffic.Workload).Data()
		for si, scheme := range schemes {
			maker := shard.SchemeMakerByName(scheme)
			cfg := runConfig(shardCycles)
			cfg.Profile = &obs.Options{}
			// The harness logs controller transitions only for a bare
			// Adaptive scheme; here each shard has its own, inside the
			// store the point binds.
			var store *shard.Store
			units = append(units, unit{
				label: fmt.Sprintf("%s/%s", names[gi], scheme),
				point: &harness.PointSpec{
					Warm: tmpls[gi],
					MkScheme: func(t *tsx.Thread) core.Scheme {
						store = shard.Bind(t, data, shard.StoreConfig{MkScheme: maker})
						return traffic.Route(store)
					},
					Seed: harness.DeriveSeed(seed, gi, si),
					Cfg:  cfg,
				},
				transitions: func() int { return storeTransitions(store) },
			})
		}
	}
	return units
}

// exploreBattery is the quick battery's configurations on the TTAS and MCS
// locks (every scheme, the paper's two lock kinds) plus the full battery's
// three deep configurations, all at the quick battery's replay budget: the
// whole battery takes several times one pass.
func exploreBattery(_ int64, tr *tracer, parent int) []unit {
	var cfgs []explore.Config
	for _, c := range explore.Battery(true) {
		if c.Lock == "TTAS" || c.Lock == "MCS" {
			cfgs = append(cfgs, c)
		}
	}
	budget := cfgs[0].MaxReplays
	cfgs = append(cfgs,
		explore.Config{Scheme: "Standard", Lock: "TTAS", Threads: 3, Ops: 2, MaxReplays: budget},
		explore.Config{Scheme: "HLE", Lock: "TTAS", Threads: 3, Ops: 2, MaxReplays: budget},
		explore.Config{Scheme: "Standard", Lock: "TTAS", Threads: 4, Ops: 1, MaxReplays: budget},
	)
	// Explore has no separate set-up phase; warm the heap and the proc
	// stacks with the battery's first configuration so that the first
	// measured configuration does not pay for them.
	sp := tr.begin("explore.warmup", "", parent)
	explore.Run(cfgs[0])
	tr.end(sp)
	units := make([]unit, len(cfgs))
	for i := range cfgs {
		units[i] = unit{label: cfgs[i].Label(), cfg: &cfgs[i]}
	}
	return units
}

// storeTransitions counts the scheme transitions of a store's adaptive
// shard schemes.
func storeTransitions(s *shard.Store) int {
	n := 0
	for si := 0; si < s.Data().Shards(); si++ {
		if ad, ok := s.Scheme(si).(*core.Adaptive); ok {
			n += len(ad.Transitions())
		}
	}
	return n
}

// pointDigest fingerprints a point's deterministic outcome: its operation
// counts, transaction counts and final virtual clock.
func pointDigest(r *harness.Result) string {
	return digest(fmt.Sprintf("%+v|%+v|%d", r.Ops, r.TSX, r.MaxClock))
}

// configDigest fingerprints an exploration by its report line, which
// carries every count the explorer prints.
func configDigest(r *explore.Result) string { return digest(r.Line()) }

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// pointProblem applies the seed-independent checks to one point: it made
// progress, no watchdog stopped it, and where it was profiled every abort
// was attributed exactly once.
func pointProblem(r *harness.Result) string {
	switch {
	case r.Failure != nil:
		return "watchdog: " + r.Failure.Reason
	case r.Ops.Ops == 0:
		return "no operations completed"
	}
	if p := r.Profile; p != nil {
		if p.CauseSum() != p.TotalAborts || p.EngineAborts != p.TotalAborts || p.EngineAborts != r.TSX.TotalAborts() {
			return fmt.Sprintf("obs attribution: causes %d, profile %d, engine %d, tsx %d",
				p.CauseSum(), p.TotalAborts, p.EngineAborts, r.TSX.TotalAborts())
		}
	}
	return ""
}

// configProblem applies the seed-independent checks to one exploration.
func configProblem(r *explore.Result) string {
	switch {
	case r.Violation != nil:
		return "violation: " + r.Violation.Error()
	case r.ForkMismatches != 0:
		return fmt.Sprintf("%d forked outcomes disagree with scratch replay", r.ForkMismatches)
	case r.States == 0:
		return "no states explored"
	}
	return ""
}
