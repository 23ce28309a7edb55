// Package figures regenerates every table and figure of the paper's
// evaluation. Each generator runs the same workloads the paper describes on
// the simulated machine and prints the same rows/series the paper reports.
// Absolute numbers differ (the substrate is a simulator, not the authors'
// Core i7-4770), but the shapes — who wins, by roughly what factor, where
// crossovers fall — are the reproduction targets; EXPERIMENTS.md records
// paper-vs-measured for each.
package figures

import (
	"fmt"
	"io"
	"runtime"

	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/stamp"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// Options controls experiment scale.
type Options struct {
	// Threads is the worker count for the multi-threaded figures
	// (default 8, the paper's machine).
	Threads int
	// Budget is the virtual-cycle budget per measurement (default 2M).
	Budget uint64
	// Runs averages each measurement over this many repetitions (the
	// paper averages 10 runs per point). Default 2, or 1 in quick mode.
	Runs int
	// Quick shrinks sweeps for fast smoke runs.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Parallel is the number of host workers experiment points fan out
	// across (default GOMAXPROCS). Results are independent of this value:
	// every point runs on its own (cloned or fresh) machine with a seed
	// derived from its declared coordinates, and output is assembled in
	// declaration order.
	Parallel int
	// Profile, when non-nil, attaches a profiling collector (internal/obs)
	// to every experiment point the figure runs. Each point owns a private
	// collector on its own machine, so profiling composes with Parallel
	// without races, and collection is passive — the simulated runs and
	// the figure's tables are byte-identical with profiling on or off.
	Profile *obs.Options
	// ProfileSink receives each point's profile, named by the point's
	// coordinates within the figure (e.g. "g0/HLE MCS"). Points are
	// delivered in declaration order regardless of Parallel, so sink
	// output is deterministic. Ignored when Profile is nil.
	ProfileSink func(name string, p *obs.Profile)
}

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Budget == 0 {
		o.Budget = 1_500_000
		if o.Quick {
			o.Budget = 500_000
		}
	}
	if o.Runs == 0 {
		o.Runs = 2
		if o.Quick {
			o.Runs = 1
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// measure is the one way a figure runs its experiment points. It fans
// points 0..n-1 out across o.Parallel host workers and hands each point
// its collector options: o.Profile when the figure run is profiling,
// otherwise a default collector for the points reads marks (their tables
// read the profile; collection is passive, so measurements are unchanged),
// and nil for the rest. point runs point i collecting under the options it
// is given and returns its result and profile (nil when given nil).
//
// After the fan-out, on the caller's goroutine and in declaration order,
// every profile is checked for the abort-attribution invariant and, when
// o.Profile is set, delivered to o.ProfileSink as name(i). Results, the
// first violation reported and the profile stream are therefore all
// independent of o.Parallel. reads may be nil.
func measure[R any](o Options, n int, name func(i int) string, reads func(i int) bool,
	point func(i int, prof *obs.Options) (R, *obs.Profile)) ([]R, []*obs.Profile) {
	results := make([]R, n)
	profiles := make([]*obs.Profile, n)
	harness.ParallelFor(o.Parallel, n, func(i int) {
		prof := o.Profile
		if prof == nil && reads != nil && reads(i) {
			prof = &obs.Options{}
		}
		results[i], profiles[i] = point(i, prof)
	})
	for i, p := range profiles {
		if p == nil {
			continue
		}
		// Every abort is classified exactly once: the per-cause counts sum
		// to the observed total, which matches the engine's own counters
		// wherever the point stamped them. A violation is a simulator bug,
		// not a measurement.
		if p.CauseSum() != p.TotalAborts || (p.EngineAborts != 0 && p.EngineAborts != p.TotalAborts) {
			panic(fmt.Sprintf("figures: %s: abort attribution broken: causes %d, observed %d, engine %d",
				name(i), p.CauseSum(), p.TotalAborts, p.EngineAborts))
		}
		if o.Profile != nil && o.ProfileSink != nil {
			o.ProfileSink(name(i), p)
		}
	}
	return results, profiles
}

// everyPoint is measure's reads for figures whose tables read every
// point's profile.
func everyPoint(int) bool { return true }

// measureSpecs runs harness points through measure; each result carries
// its own profile.
func measureSpecs(o Options, points []harness.PointSpec, name func(i int) string, reads func(i int) bool) []harness.Result {
	results, _ := measure(o, len(points), name, reads, func(i int, prof *obs.Options) (harness.Result, *obs.Profile) {
		p := points[i]
		p.Cfg.Profile = prof
		r := p.Run()
		return r, r.Profile
	})
	return results
}

// observe returns what a point that drives its own machine installs as its
// observer and a function that exports the collected profile: a collector
// labelled label, or a nil observer and nil profile when prof is nil.
func observe(prof *obs.Options, label string) (tsx.Observer, func() *obs.Profile) {
	if prof == nil {
		return nil, func() *obs.Profile { return nil }
	}
	col := obs.New(*prof)
	col.SetLabel(label)
	return col, col.Profile
}

// stampApp is one STAMP application, as stamp.Apps lists them.
type stampApp = struct {
	Name string
	Make func(t *tsx.Thread) stamp.App
}

// stampPoint is the one STAMP point recipe: app runs to completion under
// spec on a fresh o.Threads machine with a 4 MB heap laid out by layout,
// and its output is validated (a failure is a simulator or scheme bug, so
// it panics). When prof is non-nil the run is profiled under label, with
// the engine's abort total stamped for the attribution check.
func stampPoint(o Options, app stampApp, spec harness.SchemeSpec, layout mem.Layout,
	prof *obs.Options, label string) (stamp.Result, *obs.Profile) {
	cfg := tsx.DefaultConfig(o.Threads)
	cfg.Seed = o.Seed
	cfg.MemWords = 1 << 19
	cfg.Layout = layout
	var profile func() *obs.Profile
	cfg.Observer, profile = observe(prof, label)
	res, err := stamp.Run(cfg, spec, app.Make, o.Threads)
	if err != nil {
		panic(fmt.Sprintf("figures: STAMP %s under %v failed validation: %v", app.Name, spec, err))
	}
	p := profile()
	if p != nil {
		p.EngineAborts = res.TSX.TotalAborts()
	}
	return res, p
}

// Figure is one reproducible experiment.
type Figure struct {
	// ID is the paper's figure/table number ("2.1", "3.1", ... "5.4"),
	// or a chapter tag ("ch6", "ch7") or ablation name.
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment and returns its tables.
	Run func(o Options) []*stats.Table
}

// All returns every figure generator in paper order.
func All() []Figure {
	return []Figure{
		{"2.1", "Transactional failure fraction vs read/write-set size (1 thread, no contention)", Fig21},
		{"3.1", "Avalanche effect: speedup, attempts/op, non-speculative fraction vs tree size (TTAS vs MCS)", Fig31},
		{"3.3", "Serialization dynamics over time (normalized throughput per slot)", Fig33},
		{"3.4", "HLE speedup over the standard lock, three contention levels", Fig34},
		{"3.5", "HLE-based vs RTM-based lock elision", Fig35},
		{"5.1", "Scheme scaling with thread count (128-node tree, moderate contention)", Fig51},
		{"5.2", "Scheme speedups over the plain-HLE baseline across tree sizes", Fig52},
		{"5.3", "Attempts/op and non-speculative fraction under 50/50 updates", Fig53},
		{"5.2ht", "Hash-table variant of the data-structure benchmark (§5.2)", FigHashTable},
		{"5.4", "STAMP: normalized runtime, attempts/op, non-speculative fraction", Fig54},
		{"ch6", "HLE-adjusted ticket and CLH locks behave like MCS (Chapter 6)", FigCh6},
		{"ch7", "Hardware extension vs HLE and HLE-SCM (Chapter 7)", FigCh7},
		{"abl-scm", "Ablation: SCM max-retries tuning (§5.1)", AblationSCMRetries},
		{"abl-spur", "Ablation: spurious-abort rate sensitivity (§2.2)", AblationSpurious},
		{"abl-multi", "Ablation: multi-group SCM (future-work remark, §4)", AblationMultiAux},
		{"abl-miss", "Ablation: cache-miss cost model sensitivity", AblationMissModel},
		{"abl-backoff", "Ablation: backoff damping vs SCM prevention (Ch. 8 contrast)", AblationBackoff},
		{"profiles", "Workload transaction profiles (STAMP characterization evidence)", FigProfiles},
		{"ext-scale", "Extension: scaling beyond the paper's 8 threads", ExtScaling},
		{"ext-cslen", "Extension: critical-section length sensitivity", ExtCSLength},
		{"ext-stamp", "Extension: capacity-bound STAMP workload (labyrinth)", ExtStamp},
		{"ext-chaos", "Extension: chaos soak — fault injection under watchdogs, serializability-checked", ExtChaos},
		{"ext-adapt", "Extension: adaptive per-lock controller vs static schemes across contention", ExtAdapt},
		{"ext-shard", "Extension: sharded elided store under internet-shaped traffic (skew, storms, tenants)", ExtShard},
		{"ext-place", "Extension: allocator placement policy ablation with heatmap-driven auto-pad", ExtPlace},
		{"ext-lazy", "Extension: lazy lock subscription — eager vs naive vs fixed across capacity limits", ExtLazy},
	}
}

// ByID returns the figure with the given ID, or nil.
func ByID(id string) *Figure {
	for _, f := range All() {
		if f.ID == id {
			fig := f
			return &fig
		}
	}
	return nil
}

// RunAll executes every figure and writes the tables to w.
func RunAll(w io.Writer, o Options) {
	for _, f := range All() {
		fmt.Fprintf(w, "\n### Figure %s — %s\n\n", f.ID, f.Title)
		for _, tb := range f.Run(o) {
			tb.Fprint(w)
			fmt.Fprintln(w)
		}
	}
}

// treeSizes returns the paper's x axis (Figure 3.1 etc.).
func treeSizes(o Options) []int {
	if o.Quick {
		return []int{8, 128, 2048, 32768}
	}
	return []int{2, 8, 32, 128, 512, 2048, 8192, 32768, 131072, 524288}
}

// machineCfg builds the simulated-machine config for a data-structure
// experiment of the given element count.
func machineCfg(o Options, elems int) tsx.Config {
	cfg := tsx.DefaultConfig(o.Threads)
	cfg.Seed = o.Seed
	words := elems*16 + 1<<16
	cfg.MemWords = words
	return cfg
}

// dsGroup declares one populated data structure and the schemes to measure
// on it. A figure declares all its groups up front; dsRunGroups builds each
// group's machine once, then fans the (group × scheme) points out across
// host workers, every point on its own clone.
type dsGroup struct {
	size    int
	mix     harness.Mix
	mk      func(t *tsx.Thread, size int, mix harness.Mix) harness.Workload
	specs   []harness.SchemeSpec
	threads int
	// mcfg overrides the machine configuration (default machineCfg(o, size)).
	mcfg *tsx.Config
	// rcfg overrides the run configuration (default: threads, Budget
	// measured cycles after a Budget warmup — the paper's 3-second runs
	// measure the post-avalanche steady state, so the trigger transient is
	// skipped).
	rcfg *harness.Config
	// runs overrides Options.Runs for this group's points.
	runs int
}

// dsRunGroups measures every group's schemes and returns one result map per
// group, indexed as declared. Each group declares one warm template —
// population dominates cost for large sizes, so sibling points share it:
// the first point to need a group populates it and captures a checkpoint,
// every later point forks the checkpoint, and each point is reseeded from
// its coordinates. Within a point, repetitions reuse the fork: memory state
// persists, so they sample different phases of the (metastable) avalanche
// dynamics, as the paper's "average on 10 runs" does.
func dsRunGroups(o Options, groups []dsGroup) []map[string]harness.Result {
	templates := make([]*harness.WarmTemplate, len(groups))
	for gi, g := range groups {
		cfg := machineCfg(o, g.size)
		if g.mcfg != nil {
			cfg = *g.mcfg
		}
		g := g
		templates[gi] = &harness.WarmTemplate{
			Machine: cfg,
			MkWorkload: func(t *tsx.Thread) harness.Workload {
				return g.mk(t, g.size, g.mix)
			},
		}
	}

	var points []harness.PointSpec
	var coords [][2]int
	for gi, g := range groups {
		cfg := harness.Config{Threads: g.threads, CycleBudget: o.Budget, Warmup: o.Budget}
		if g.rcfg != nil {
			cfg = *g.rcfg
		}
		runs := g.runs
		if runs == 0 {
			runs = o.Runs
		}
		for si := range g.specs {
			points = append(points, harness.PointSpec{
				Warm:   templates[gi],
				Scheme: g.specs[si],
				Seed:   harness.DeriveSeed(o.Seed, gi, si),
				Runs:   runs,
				Cfg:    cfg,
			})
			coords = append(coords, [2]int{gi, si})
		}
	}
	results := measureSpecs(o, points, func(pi int) string {
		gi, si := coords[pi][0], coords[pi][1]
		return fmt.Sprintf("g%d/%s", gi, groups[gi].specs[si].String())
	}, nil)

	out := make([]map[string]harness.Result, len(groups))
	for gi, g := range groups {
		out[gi] = make(map[string]harness.Result, len(g.specs))
	}
	for pi, r := range results {
		gi, si := coords[pi][0], coords[pi][1]
		out[gi][groups[gi].specs[si].String()] = r
	}
	return out
}

func mkRBTree(t *tsx.Thread, size int, mix harness.Mix) harness.Workload {
	return harness.NewRBTree(t, size, mix)
}

func mkHashTable(t *tsx.Thread, size int, mix harness.Mix) harness.Workload {
	return harness.NewHashTable(t, size, mix)
}
