package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/sim"
	"hle/internal/tsx"
)

// passThrough is a fault injector that injects nothing. Installing one
// leaves a run's outcome alone but keeps every spin wait on its own
// coroutine: tsx.Thread.Spin serves a waiter's grants in place only on a
// machine with no injector.
type passThrough struct{}

func (passThrough) Access(int, uint64, int, bool, bool) (uint64, bool) { return 0, false }
func (passThrough) WriteCap(_ int, _ uint64, limit int) int            { return limit }
func (passThrough) Grant(_ int, _, slice uint64) uint64                { return slice }

// eventHash is an Observer that folds every scheduler grant and engine
// event, in issue order, into an FNV-1a hash.
type eventHash struct{ h uint64 }

func (e *eventHash) mix(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			e.h ^= v & 0xff
			e.h *= 1099511628211
			v >>= 8
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *eventHash) BindMachine(*tsx.Machine)            {}
func (e *eventHash) TxBegin(id int, clock uint64)        { e.mix(1, uint64(id), clock) }
func (e *eventHash) Grant(id int, clock uint64)          { e.mix(2, uint64(id), clock) }
func (e *eventHash) Serial(id int, c uint64, on bool)    { e.mix(3, uint64(id), c, b2u(on)) }
func (e *eventHash) TxCommit(id int, c, b uint64, n int) { e.mix(4, uint64(id), c, b, uint64(n)) }
func (e *eventHash) TxAbort(id int, c, b uint64, cause tsx.Cause, line, aggr int, inj, el bool) {
	e.mix(5, uint64(id), c, b, uint64(cause), uint64(line), uint64(aggr), b2u(inj), b2u(el))
}

// threadTap is a workload that remembers each thread it draws an op for,
// so a test can read the threads' clocks and statistics after the run.
type threadTap struct {
	harness.Workload
	threads []*tsx.Thread
}

func (w *threadTap) NextOp(t *tsx.Thread) harness.Op {
	w.threads[t.ID] = t
	return w.Workload.NextOp(t)
}

// spinOutcome is what the differential compares: op statistics, each
// thread's clock and transaction statistics, the event hash, any watchdog
// stop — and, kept apart, how many grants were served in place.
type spinOutcome struct {
	Ops     core.OpStats
	Clocks  []uint64
	Stats   []tsx.Stats
	Events  uint64
	Stopped string
	served  uint64
}

// runSpinCase runs c's point at a small budget, optionally with a
// pass-through injector installed.
func runSpinCase(c schemeCase, inject bool) spinOutcome {
	const threads = 4
	warm := &harness.WarmTemplate{Machine: c.machine(), MkWorkload: goldenSchemeWorkload}
	m, w := warm.Fork()
	var scheme core.Scheme
	m.RunOne(func(t *tsx.Thread) { scheme = c.spec.Build(t) })
	events := &eventHash{h: 14695981039346656037}
	m.SetObserver(events)
	if inject {
		m.SetInjector(passThrough{})
	}
	tap := &threadTap{Workload: w, threads: make([]*tsx.Thread, threads)}
	served := sim.ServedGrants()
	res := harness.Run(m, scheme, tap, harness.Config{Threads: threads, CycleBudget: 60_000, Watchdog: goldenSchemeWatchdog})
	out := spinOutcome{Ops: res.Ops, Events: events.h, served: sim.ServedGrants() - served}
	if res.Failure != nil {
		out.Stopped = res.Failure.Reason
	}
	for _, t := range tap.threads {
		if t != nil {
			out.Clocks = append(out.Clocks, t.Clock())
			out.Stats = append(out.Stats, t.Stats)
		}
	}
	return out
}

// TestSpinServedMatchesSwitched runs every TestGoldenSchemeFingerprint
// point twice at a small budget: as is, where threads waiting on a lock
// word have their grants served in place, and with a pass-through injector
// that keeps every wait on its coroutine. The two must agree on op and
// transaction statistics, every thread's clock, and the hash of every
// grant and engine event — and, across the points, the plain runs must
// actually serve grants in place.
func TestSpinServedMatchesSwitched(t *testing.T) {
	var served uint64
	for _, c := range goldenSchemeCases() {
		t.Run(c.key, func(t *testing.T) {
			plain := runSpinCase(c, false)
			injected := runSpinCase(c, true)
			if injected.served != 0 {
				t.Errorf("%d grants served in place with an injector installed", injected.served)
			}
			served += plain.served
			plain.served = 0
			if !reflect.DeepEqual(plain, injected) {
				t.Errorf("served-in-place run differs from switched run:\n%+v\n%+v", plain, injected)
			}
		})
	}
	if served == 0 {
		t.Error("no grant was served in place")
	}
}

// TestSpinGrantsServedInPlace pins how many grants one contended point
// serves in place: an 8-key rbtree at 50/50 updates on four threads under
// the Standard scheme on a TTAS lock, where most threads spend most
// grants waiting for the lock. Every golden test would still pass if waits
// silently went back to switching coroutines; this count would not.
func TestSpinGrantsServedInPlace(t *testing.T) {
	grants, served := sim.Grants(), sim.ServedGrants()
	res := runPoint(machineCfg(4, 1), harness.SchemeSpec{Scheme: "Standard", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload { return harness.NewRBTree(th, 8, harness.MixExtensive) },
		harness.Config{Threads: 4, CycleBudget: 200_000})
	grants, served = sim.Grants()-grants, sim.ServedGrants()-served
	got := fmt.Sprintf("%d ops, %d grants, %d served in place", res.Ops.Ops, grants, served)
	if want := "1574 ops, 48779 grants, 30938 served in place"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
