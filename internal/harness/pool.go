package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hle/internal/adapt"
	"hle/internal/core"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// WarmTemplate shares one populated machine image across many points. The
// first Fork builds the machine, populates the workload, captures a
// checkpoint of the warm state and releases the machine; every Fork then
// takes a machine from tsx.FromCheckpoint, which resets a released one
// (the template's, or one an ended point handed back) to the checkpoint.
// A point therefore skips the fill phase and costs one memory copy into
// storage a worker already owns. Forks are deterministic: every forked
// machine starts from the identical image, so results do not depend on
// how many points shared the template, in what order workers claimed
// them, or which machine each was recycled from.
type WarmTemplate struct {
	// Machine configures the template machine.
	Machine tsx.Config
	// MkWorkload builds the workload whose Populate fills the machine.
	MkWorkload func(t *tsx.Thread) Workload

	once sync.Once
	cp   *tsx.Checkpoint
	w    Workload
}

// Fork returns an independent machine holding the warm image plus the
// shared workload handle (workload Go-side state is immutable after
// Populate, so sharing it across concurrent forks is safe). The first call
// pays the build-and-populate cost; concurrent first calls serialize on it.
// Release the machine when the point ends.
func (wt *WarmTemplate) Fork() (*tsx.Machine, Workload) {
	wt.once.Do(func() {
		m := tsx.NewMachine(wt.Machine)
		m.Fill(func(t *tsx.Thread) {
			wt.w = wt.MkWorkload(t)
			wt.w.Populate(t)
		})
		wt.cp = m.Checkpoint()
		m.Release()
	})
	return tsx.FromCheckpoint(wt.cp), wt.w
}

// PointSpec declares one experiment point: a warm template, a scheme, and a
// run configuration. Points are independent simulations, so a figure
// declares its points as a flat list and ParallelFor fans them out across
// host workers; results come back by declaration index, so output built
// from them is identical whatever the worker count.
type PointSpec struct {
	// Warm supplies the point's machine and workload: each run forks the
	// shared warm template.
	Warm *WarmTemplate

	// Scheme selects the scheme by name; MkScheme, when non-nil, overrides
	// it for schemes that need custom construction (ablation variants).
	Scheme   SchemeSpec
	MkScheme func(t *tsx.Thread) core.Scheme

	// Seed, when non-zero, reseeds the forked machine so the measurement
	// streams are the point's own regardless of which template it shares.
	// Derive it from the figure's base seed and the point's coordinates
	// (DeriveSeed).
	Seed int64

	// Runs repeats the measurement, averaging results; memory state
	// persists across repetitions (the structure keeps evolving), matching
	// the paper's repeated-trial methodology. A profiled point's one
	// collector accumulates every repetition. Zero means one run.
	Runs int

	// Cfg is the measurement configuration.
	Cfg Config
}

// Run executes the point and returns its (possibly averaged) result.
func (p PointSpec) Run() Result {
	m, w := p.Warm.Fork()
	if p.Seed != 0 {
		m.Reseed(p.Seed)
	}
	runs := max(p.Runs, 1)
	cfg := p.Cfg
	cfg.Profile = nil
	var prof *Profiler
	var acc Result
	var transitions []adapt.Transition
	for r := 0; r < runs; r++ {
		var scheme core.Scheme
		m.RunOne(func(t *tsx.Thread) {
			if p.MkScheme != nil {
				scheme = p.MkScheme(t)
			} else {
				scheme = p.Scheme.Build(t)
			}
		})
		if r == 0 {
			prof = NewProfiler(p.Cfg.Profile, scheme.Name())
		}
		res := run(m, scheme, w, cfg, prof)
		if ad, ok := scheme.(*core.Adaptive); ok && prof != nil {
			transitions = append(transitions, ad.Transitions()...)
		}
		acc.Ops.Add(res.Ops)
		acc.TSX.Add(res.TSX)
		acc.MaxClock += res.MaxClock
		acc.Throughput += res.Throughput
		acc.Timeline = res.Timeline
		if res.Failure != nil {
			// A watchdog stop leaves the machine torn; keep the first
			// failure and skip the remaining repetitions.
			if acc.Failure == nil {
				acc.Failure = res.Failure
			}
			runs = r + 1
			break
		}
	}
	acc.MaxClock /= uint64(runs)
	acc.Throughput /= float64(runs)
	if acc.Profile = prof.Profile(); acc.Profile != nil {
		// Adaptive points carry their scheme-transition log in the
		// profile, so -profile surfaces the controller's decisions
		// alongside the abort attribution that drove them.
		acc.Profile.Controller = controllerEvents(transitions)
	}
	// The profile resolves line labels through the machine, so it is
	// exported first; nothing in acc refers to the machine after this.
	m.Release()
	pointsRun.Add(1)
	return acc
}

// controllerEvents converts the transition logs of a point's repetitions,
// in run order, to the obs profile's dependency-free representation. Seq
// is renumbered across the concatenation so the log stays totally ordered.
func controllerEvents(trs []adapt.Transition) []obs.ControllerEvent {
	if len(trs) == 0 {
		return nil
	}
	out := make([]obs.ControllerEvent, len(trs))
	for i, tr := range trs {
		out[i] = obs.ControllerEvent{
			Seq:        i,
			Window:     tr.Window,
			Clock:      tr.Clock,
			From:       tr.From.String(),
			To:         tr.To.String(),
			Reason:     tr.Reason,
			SwapClock:  tr.SwapClock,
			DrainClock: tr.DrainClock,
			Inflight:   tr.Inflight,
		}
	}
	return out
}

// ParallelFor runs job(0..n-1) across min(parallel, n) goroutines
// (parallel <= 0 means GOMAXPROCS). Indices are claimed dynamically, so
// uneven job costs balance; with parallel == 1 it degenerates to a plain
// loop. A panicking job is re-panicked in the caller after all workers
// stop.
func ParallelFor(parallel, n int, job func(i int)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked any
		once     sync.Once
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							once.Do(func() { panicked = r })
						}
					}()
					job(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// DeriveSeed mixes a base seed with point coordinates into an independent,
// never-zero seed, so sibling points sharing a template get decorrelated
// measurement streams that do not depend on execution order.
func DeriveSeed(base int64, coords ...int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, c := range coords {
		z += uint64(c)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	z &^= 1 << 63 // keep positive
	if z == 0 {
		z = 0x1e3779b97f4a7c15 // never 0: Seed==0 means "unset"
	}
	return int64(z)
}

// pointsRun counts completed PointSpec runs process-wide.
var pointsRun atomic.Uint64

// PointsRun returns the number of PointSpec runs completed so far in this
// process. The host-time benchmark (bench/) reports it as its
// harness.points counter.
func PointsRun() uint64 { return pointsRun.Load() }
