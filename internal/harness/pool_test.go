package harness_test

import (
	"bytes"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// poolPoints builds a warm template holding a populated tree and a set of
// points over it, mimicking how a figure generator declares work.
func poolPoints() []harness.PointSpec {
	warm := &harness.WarmTemplate{
		Machine: machineCfg(4, 11),
		MkWorkload: func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 64, harness.MixModerate)
		},
	}
	specs := []harness.SchemeSpec{
		{Scheme: "Standard", Lock: "TTAS"},
		{Scheme: "HLE", Lock: "TTAS"},
		{Scheme: "HLE", Lock: "MCS"},
		{Scheme: "HLE-SCM", Lock: "MCS"},
	}
	var points []harness.PointSpec
	for si, spec := range specs {
		points = append(points, harness.PointSpec{
			Warm:   warm,
			Scheme: spec,
			Seed:   harness.DeriveSeed(11, 0, si),
			Runs:   2,
			Cfg:    harness.Config{Threads: 4, CycleBudget: 30_000, Warmup: 5_000},
		})
	}
	return points
}

// runPoints runs the points across min(parallel, len(points)) host workers
// and returns their results indexed as declared.
func runPoints(parallel int, points []harness.PointSpec) []harness.Result {
	results := make([]harness.Result, len(points))
	harness.ParallelFor(parallel, len(points), func(i int) {
		results[i] = points[i].Run()
	})
	return results
}

// TestRunPointsParallelMatchesSequential: the pool's defining property —
// results are independent of the worker count.
func TestRunPointsParallelMatchesSequential(t *testing.T) {
	seq := runPoints(1, poolPoints())
	par := runPoints(4, poolPoints())
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel results differ from sequential:\nseq=%+v\npar=%+v", seq, par)
	}
	for i, r := range seq {
		if r.Ops.Ops == 0 {
			t.Errorf("point %d completed no operations", i)
		}
	}
}

// TestTemplateSurvivesPoints: forks never write back to their warm
// template, so a second batch over the same template reproduces the first
// exactly, and a point run again on its own is deterministic.
func TestTemplateSurvivesPoints(t *testing.T) {
	pts := poolPoints()
	first := runPoints(4, pts)
	second := runPoints(4, pts)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second batch over the template differs:\nfirst=%+v\nsecond=%+v", first, second)
	}
	if again := pts[0].Run(); !reflect.DeepEqual(again, first[0]) {
		t.Fatalf("point not deterministic: %+v vs %+v", again, first[0])
	}
}

// TestDeriveSeed: distinct coordinates give distinct non-zero seeds, and the
// function is a pure function of its inputs.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for g := 0; g < 10; g++ {
		for s := 0; s < 10; s++ {
			d := harness.DeriveSeed(42, g, s)
			if d == 0 {
				t.Fatalf("DeriveSeed(42,%d,%d) = 0", g, s)
			}
			if seen[d] {
				t.Fatalf("seed collision at (%d,%d)", g, s)
			}
			seen[d] = true
			if d != harness.DeriveSeed(42, g, s) {
				t.Fatal("DeriveSeed not deterministic")
			}
		}
	}
	if harness.DeriveSeed(1, 2, 3) == harness.DeriveSeed(2, 2, 3) {
		t.Error("base seed has no effect")
	}
}

// TestParallelForCoversAllIndices: every index runs exactly once whatever
// the worker count, including counts above n and the sequential path.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, par := range []int{0, 1, 3, 64} {
		const n = 37
		var hits [n]atomic.Int32
		harness.ParallelFor(par, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallel=%d: index %d ran %d times", par, i, got)
			}
		}
	}
}

// TestParallelForPanicPropagates: a panicking job surfaces in the caller.
func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	harness.ParallelFor(4, 8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	t.Fatal("ParallelFor returned despite panicking job")
}

// TestResultsOutliveTheirMachine: a point's result holds nothing of the
// machine it ran on. A point whose watchdog fires is followed by a second
// point on the same template, whose fork recycles the machine the first
// point released — memory, thread table and trace ring — and the first
// result's failure, timeline and profile come through it unchanged.
func TestResultsOutliveTheirMachine(t *testing.T) {
	mcfg := machineCfg(4, 5)
	mcfg.TraceRing = 1 << 12
	wt := &harness.WarmTemplate{
		Machine: mcfg,
		MkWorkload: func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 128, harness.MixModerate)
		},
	}
	point := func(seed int64, wd *harness.WatchdogConfig) harness.PointSpec {
		return harness.PointSpec{
			Warm:   wt,
			Scheme: harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
			Seed:   seed,
			Cfg: harness.Config{Threads: 4, CycleBudget: 400_000, SliceCycles: 10_000,
				Watchdog: wd, Profile: &obs.Options{}},
		}
	}
	first := point(1, &harness.WatchdogConfig{StarvationWindow: 2_000}).Run()
	f := first.Failure
	if f == nil || len(f.Threads) == 0 || len(f.Events) == 0 || first.Timeline == nil || len(first.Timeline.Slots) == 0 || first.Profile == nil {
		t.Fatalf("the first point must trip with thread states, events, a timeline and a profile: %+v", first)
	}
	wantFailure := *f
	wantFailure.Cycle = slices.Clone(f.Cycle)
	wantFailure.Threads = slices.Clone(f.Threads)
	wantFailure.Events = slices.Clone(f.Events)
	wantTimeline := *first.Timeline
	wantTimeline.Slots = slices.Clone(first.Timeline.Slots)
	wantProfile := first.Profile.JSON()

	// The second point runs its whole budget, overwriting all of the
	// recycled machine's trace ring.
	if second := point(2, nil).Run(); second.Failure != nil || second.Ops.Ops <= first.Ops.Ops {
		t.Fatalf("the second point must run its whole budget: %+v", second)
	}
	if !reflect.DeepEqual(*first.Failure, wantFailure) {
		t.Errorf("failure changed after the next point:\n%s\nwas\n%s", first.Failure.Dump(), wantFailure.Dump())
	}
	if !reflect.DeepEqual(*first.Timeline, wantTimeline) {
		t.Error("timeline changed after the next point")
	}
	if got := first.Profile.JSON(); !bytes.Equal(got, wantProfile) {
		t.Errorf("profile changed after the next point:\n%s\nwas\n%s", got, wantProfile)
	}
}

// TestRecycledForkAllocatesNothing: once a released machine has held a
// default-layout rbtree image, forking the image and releasing the fork
// again allocates nothing.
func TestRecycledForkAllocatesNothing(t *testing.T) {
	m := tsx.NewMachine(machineCfg(4, 7))
	m.RunOne(func(th *tsx.Thread) {
		harness.NewRBTree(th, 1024, harness.MixModerate).Populate(th)
	})
	cp := m.Checkpoint()
	m.Release()
	tsx.FromCheckpoint(cp).Release()
	if n := testing.AllocsPerRun(20, func() { tsx.FromCheckpoint(cp).Release() }); n != 0 {
		t.Fatalf("FromCheckpoint and Release allocated %.1f times per fork", n)
	}
}

// hotCounters is a contended workload no lost update can wedge: every
// operation increments one of two shared counters. (The naive lazy
// pipeline loses updates, which could turn a tree into a cycle.)
type hotCounters struct{ cells mem.Addr }

func (w *hotCounters) Name() string { return "hot-counters" }

func (w *hotCounters) Populate(t *tsx.Thread) { w.cells = t.AllocLines(2 * mem.LineWords) }

func (w *hotCounters) NextOp(t *tsx.Thread) harness.Op {
	return harness.Op{Kind: harness.OpInsert, Key: uint64(t.Rand().Intn(2))}
}

func (w *hotCounters) Exec(t *tsx.Thread, op harness.Op) {
	a := w.cells + mem.Addr(op.Key)*mem.LineWords
	v := t.Load(a)
	t.Work(20)
	t.Store(a, v+1)
}

// TestModesDoNotLeakAcrossPoints: schemes select their elision hardware
// per thread in Setup, so a point whose machine is recycled from a point
// of another scheme must run exactly as on a fresh machine. HLE-HWExt,
// HLE-lazy-naive and plain HLE run back to back — each point's Release
// hands its machine to the next point's FromCheckpoint — and each must
// equal the same point on a fresh machine.
func TestModesDoNotLeakAcrossPoints(t *testing.T) {
	template := func() *harness.WarmTemplate {
		return &harness.WarmTemplate{Machine: machineCfg(4, 3), MkWorkload: func(*tsx.Thread) harness.Workload { return &hotCounters{} }}
	}
	point := func(warm *harness.WarmTemplate, scheme string) harness.Result {
		return harness.PointSpec{
			Warm:   warm,
			Scheme: harness.SchemeSpec{Scheme: scheme, Lock: "TTAS"},
			Seed:   11,
			Cfg:    harness.Config{Threads: 4, CycleBudget: 100_000},
		}.Run()
	}
	shared := template()
	for _, scheme := range []string{"HLE-HWExt", "HLE-lazy-naive", "HLE"} {
		recycled := point(shared, scheme)
		fresh := point(template(), scheme)
		if !reflect.DeepEqual(recycled, fresh) {
			t.Errorf("%s on a recycled machine: %+v; on a fresh one: %+v", scheme, recycled, fresh)
		}
	}
}
