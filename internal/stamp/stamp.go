// Package stamp re-implements the STAMP benchmark applications the paper
// evaluates (§5.3): genome, intruder, kmeans (high and low contention),
// ssca2, and vacation (high and low contention). As in the paper, the
// original transactions are replaced by critical sections that all use the
// same global lock, exercised through an elision scheme.
//
// Each application is simplified relative to the full C original but
// preserves what matters to lock elision: its transaction-length profile,
// read/write-set sizes, and contention level, following the published
// STAMP characterization:
//
//	genome    — short/moderate txs, moderate sets, low contention
//	intruder  — short txs on hot shared queues, high contention
//	kmeans    — very short txs on centroid accumulators; contention set
//	            by the number of clusters (high = few clusters)
//	ssca2     — tiny txs, large data, very low contention
//	vacation  — long txs over tree-based tables; contention set by the
//	            query spread (high = narrow spread, more clashes)
//
// Every application validates its output after the run, so the suite
// doubles as an integration test of the entire stack.
package stamp

import (
	"fmt"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// App is one STAMP application instance living in simulated memory.
type App interface {
	// Name is the benchmark name as the paper's Figure 5.4 labels it.
	Name() string
	// Setup builds the input data; called once, single-threaded.
	Setup(t *tsx.Thread)
	// Worker runs thread t's share of the fixed workload. Critical
	// sections must go through scheme.Run.
	Worker(t *tsx.Thread, scheme core.Scheme, threads int)
	// Validate checks the computation's output, returning a descriptive
	// error on corruption. Called once, single-threaded, after all
	// workers finish.
	Validate(t *tsx.Thread) error
}

// Result is the outcome of one STAMP run.
type Result struct {
	// Runtime is the virtual time at which the last worker finished —
	// the quantity Figure 5.4(a,b) normalizes.
	Runtime uint64
	// Ops aggregates critical-section statistics (Figure 5.4(c,d)).
	Ops core.OpStats
	// TSX aggregates transaction statistics.
	TSX tsx.Stats
}

// Run executes one application under one scheme with the given thread
// count on m, a fresh machine, and validates the output. prof, when
// non-nil, profiles the workers' run (not setup or validation).
func Run(m *tsx.Machine, spec harness.SchemeSpec, mk func(t *tsx.Thread) App, threads int,
	prof *harness.Profiler) (Result, error) {
	var app App
	var scheme core.Scheme
	m.Fill(func(t *tsx.Thread) {
		app = mk(t)
		app.Setup(t)
		scheme = spec.Build(t)
	})
	ths := prof.Run(m, threads, func(t *tsx.Thread) {
		scheme.Setup(t)
		app.Worker(t, scheme, threads)
	})
	var res Result
	for _, t := range ths {
		res.TSX.Add(t.Stats)
		if t.Clock() > res.Runtime {
			res.Runtime = t.Clock()
		}
	}
	res.Ops = scheme.TotalStats()
	var err error
	m.RunOne(func(t *tsx.Thread) {
		if verr := app.Validate(t); verr != nil {
			err = fmt.Errorf("%s: %w", app.Name(), verr)
		}
	})
	return res, err
}

// Barrier is a sense-reversing barrier in simulated memory, used by the
// phased applications (kmeans). It synchronizes workers without the global
// lock, like STAMP's thread_barrier.
type Barrier struct {
	count mem.Addr // arrivals in the current phase
	sense mem.Addr // generation counter
	n     int
}

// NewBarrier allocates a barrier for n threads.
func NewBarrier(t *tsx.Thread, n int) *Barrier {
	return &Barrier{count: t.AllocLines(1), sense: t.AllocLines(1), n: n}
}

// Wait blocks (in virtual time) until all n threads arrive.
func (b *Barrier) Wait(t *tsx.Thread) {
	gen := t.Load(b.sense)
	if t.FetchAdd(b.count, 1) == uint64(b.n-1) {
		// Last arrival: reset and release the others.
		t.Store(b.count, 0)
		t.Store(b.sense, gen+1)
		return
	}
	t.SpinWhile(b.sense, gen)
}

// Apps enumerates constructors for the seven paper workloads in Figure 5.4
// order. Sizes are scaled to simulator throughput while preserving each
// application's tx profile.
func Apps() []struct {
	Name string
	Make func(t *tsx.Thread) App
} {
	return []struct {
		Name string
		Make func(t *tsx.Thread) App
	}{
		{"genome", func(t *tsx.Thread) App { return NewGenome(128, 8, 4) }},
		{"intruder", func(t *tsx.Thread) App { return NewIntruder(96, 6) }},
		{"kmeans_high", func(t *tsx.Thread) App { return NewKMeans(512, 4, 3, 6) }},
		{"kmeans_low", func(t *tsx.Thread) App { return NewKMeans(512, 32, 3, 6) }},
		{"ssca2", func(t *tsx.Thread) App { return NewSSCA2(256, 4) }},
		{"vacation_high", func(t *tsx.Thread) App { return NewVacation(64, 300, 8, true) }},
		{"vacation_low", func(t *tsx.Thread) App { return NewVacation(256, 300, 4, false) }},
	}
}
