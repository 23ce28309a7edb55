// Package harness runs the paper's benchmark methodology: N simulated
// threads continuously executing critical sections over a shared data
// structure under a (lock × elision-scheme) combination, for a fixed
// virtual-time budget, collecting throughput, attempts-per-operation,
// non-speculative fractions, and time-sliced dynamics.
package harness

import (
	"fmt"

	"hle/internal/core"
	"hle/internal/obs"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// OpKind enumerates the workload operations.
type OpKind uint8

// The operation kinds of the set/map workloads.
const (
	OpLookup OpKind = iota
	OpInsert
	OpDelete
	// OpScan is a cross-shard operation (consistent size/snapshot) on
	// sharded workloads: under an OpRouter scheme it runs holding every
	// shard lock instead of one shard's.
	OpScan
)

// Op is one drawn operation, executed via Workload.Exec. Ops are plain
// values rather than closures so the measurement loop performs no
// per-operation heap allocation — drawing and running millions of ops per
// point, the closure allocations this replaces dominated the harness's own
// profile.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Workload produces critical-section operations over a pre-populated
// structure in simulated memory.
//
// A Workload's Go-side state must be immutable after Populate: the
// structure lives at simulated addresses, which stay valid in every fork
// of the populated machine, so one Workload value serves many concurrent
// experiment points over forked machines (see WarmTemplate).
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Populate builds the initial structure; called once, single-threaded.
	Populate(t *tsx.Thread)
	// NextOp draws the next operation using the thread's deterministic RNG.
	NextOp(t *tsx.Thread) Op
	// Exec runs op's critical section on t. It must be idempotent under
	// rollback, which all simulated-memory operations are.
	Exec(t *tsx.Thread, op Op)
}

// OpRouter is implemented by schemes that dispatch operations to
// different synchronization domains — the sharded store routes each op to
// its key's shard lock and scans to an all-shard section. When the scheme
// under measurement implements OpRouter, Run hands it the drawn Op along
// with the critical section; otherwise every op runs under the scheme's
// single Run path.
type OpRouter interface {
	RunOp(t *tsx.Thread, op Op, cs func()) core.Result
}

// Config controls one measurement run.
type Config struct {
	// Threads is the number of worker threads.
	Threads int
	// CycleBudget is the measured window in virtual cycles: each thread
	// issues operations until its clock passes Warmup+CycleBudget, and
	// operations completing before Warmup are excluded from statistics.
	CycleBudget uint64
	// Warmup discards the run's initial transient. The paper measures
	// 3-second steady states (~10^10 cycles), so its avalanche-trigger
	// transients are invisible; a short simulated window must skip them
	// explicitly to measure the same steady state.
	Warmup uint64
	// SliceCycles enables time-sliced collection (Figure 3.3) when
	// non-zero. The timeline covers the whole run including warmup.
	SliceCycles uint64
	// Watchdog, when non-nil, arms liveness detection: a starving or
	// livelocked (or, with a Monitor, deadlocked) run is stopped and
	// reported as Result.Failure instead of hanging. Nil keeps the run
	// byte-identical to a watchdog-free build.
	Watchdog *WatchdogConfig
	// Profile, when non-nil, makes PointSpec.Run profile the point: one
	// collector (internal/obs) covers the measured runs of all its
	// repetitions (not setup, population or scheme construction) and is
	// private to the point, so host-parallel points collect without
	// races. Run itself takes no profile. Nil keeps the point hook-free.
	Profile *obs.Options
}

// Result is the outcome of one measurement run.
type Result struct {
	// Ops aggregates operation-level statistics across threads.
	Ops core.OpStats
	// MaxClock is the virtual time at which the last thread stopped.
	MaxClock uint64
	// Throughput is completed operations per million cycles.
	Throughput float64
	// TSX aggregates transaction-level statistics across threads.
	TSX tsx.Stats
	// Timeline is the per-slot series (nil unless SliceCycles was set).
	Timeline *stats.Timeline
	// Failure is the watchdog diagnostic when the run was stopped for a
	// liveness violation (nil otherwise; always nil without a watchdog).
	// A failed run's other fields cover only the progress made before the
	// stop, and the machine's simulated state is torn — diagnostics only.
	Failure *Failure
	// Profile is the point's profiling result, set only by PointSpec.Run
	// when Config.Profile is.
	Profile *obs.Profile
}

// Run executes the workload under scheme on machine m. It is the
// measurement loop only: profiling is per point, so a Config with a
// Profile goes through PointSpec.Run.
func Run(m *tsx.Machine, scheme core.Scheme, w Workload, cfg Config) Result {
	return run(m, scheme, w, cfg, nil)
}

// run is Run with the measured run profiled by prof (nil for none).
func run(m *tsx.Machine, scheme core.Scheme, w Workload, cfg Config, prof *Profiler) Result {
	if cfg.Threads <= 0 || cfg.CycleBudget == 0 {
		panic(fmt.Sprintf("harness: bad config %+v", cfg))
	}
	if cfg.Profile != nil {
		panic("harness: Run takes no Profile; profile a point with PointSpec.Run")
	}
	var timeline *stats.Timeline
	if cfg.SliceCycles > 0 {
		timeline = stats.NewTimeline(cfg.SliceCycles)
	}
	end := cfg.Warmup + cfg.CycleBudget
	var wd *Watchdog
	if cfg.Watchdog != nil {
		wd = NewWatchdog(*cfg.Watchdog, cfg.Threads)
		m.SetWatchdog(wd.Check)
		defer m.SetWatchdog(nil)
	}
	// Routing is resolved once per run, not per op.
	router, routed := scheme.(OpRouter)
	var res Result
	threads := prof.Run(m, cfg.Threads, func(t *tsx.Thread) {
		scheme.Setup(t)
		// One closure per thread, re-aimed at each drawn op: the
		// critical section the scheme retries is allocation-free.
		var op Op
		cs := func() { w.Exec(t, op) }
		for t.Clock() < end {
			op = w.NextOp(t)
			var r core.Result
			if routed {
				r = router.RunOp(t, op, cs)
			} else {
				r = scheme.Run(t, cs)
			}
			// Shared state is safe: simulated execution is
			// token-serialized.
			if wd != nil {
				wd.NoteOp(t.ID, t.Clock())
			}
			if timeline != nil {
				timeline.Record(t.Clock(), r.Spec)
			}
			if t.Clock() >= cfg.Warmup {
				res.Ops.Ops++
				res.Ops.Attempts += r.Attempts
				if r.Spec {
					res.Ops.Spec++
				} else {
					res.Ops.NonSpec++
				}
			}
		}
		if wd != nil {
			wd.NoteDone(t.ID)
		}
	})
	if wd != nil && m.Stopped() {
		res.Failure = wd.Failure(m, threads)
	}
	for _, t := range threads {
		res.TSX.Add(t.Stats)
		if t.Clock() > res.MaxClock {
			res.MaxClock = t.Clock()
		}
	}
	if res.MaxClock > cfg.Warmup {
		res.Throughput = float64(res.Ops.Ops) * 1e6 / float64(res.MaxClock-cfg.Warmup)
	}
	res.Timeline = timeline
	return res
}
