package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRunSingleProc(t *testing.T) {
	ran := false
	procs := Run(Config{Seed: 1}, 1, func(p *Proc) {
		ran = true
		for i := 0; i < 100; i++ {
			p.Step(3)
		}
	})
	if !ran {
		t.Fatal("body did not run")
	}
	if got := procs[0].Clock(); got != 300 {
		t.Fatalf("clock = %d, want 300", got)
	}
}

func TestRunAllProcsComplete(t *testing.T) {
	const n = 8
	done := make([]bool, n)
	Run(Config{Seed: 1}, n, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Step(uint64(p.ID + 1))
		}
		done[p.ID] = true
	})
	for i, d := range done {
		if !d {
			t.Errorf("proc %d did not complete", i)
		}
	}
}

// TestMinClockScheduling verifies that execution order approximates virtual
// time: a cheap-stepping proc should be granted many more turns than an
// expensive-stepping one, so their final clocks end up close.
func TestMinClockScheduling(t *testing.T) {
	var clocks [2]uint64
	order := make([]int, 0, 64)
	Run(Config{Seed: 1, Quantum: 1}, 2, func(p *Proc) {
		cost := uint64(1)
		steps := 1000
		if p.ID == 1 {
			cost, steps = 10, 100
		}
		for i := 0; i < steps; i++ {
			p.Step(cost)
			if len(order) < cap(order) {
				order = append(order, p.ID)
			}
		}
		clocks[p.ID] = p.Clock()
	})
	if clocks[0] != 1000 || clocks[1] != 1000 {
		t.Fatalf("clocks = %v, want both 1000", clocks)
	}
	// With quantum 1 the interleaving must alternate between the procs
	// rather than running one to completion.
	saw := map[int]bool{}
	for _, id := range order[:20] {
		saw[id] = true
	}
	if !saw[0] || !saw[1] {
		t.Fatalf("first 20 steps ran only proc set %v; expected interleaving", saw)
	}
}

// TestDeterminism: identical configs produce identical schedules, observed
// through the per-proc RNG consumption pattern.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []uint64 {
		var out []uint64
		Run(Config{Seed: seed, Quantum: 16}, 4, func(p *Proc) {
			for i := 0; i < 200; i++ {
				p.Step(uint64(p.Rand().Intn(5) + 1))
			}
			out = append(out, p.Clock())
		})
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic: %v vs %v", a, b)
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// TestClockMonotonic (property): for random step sequences, each proc's
// clock equals the sum of its own costs — scheduling never perturbs it.
func TestClockMonotonic(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		costs := make([]uint64, 0, len(raw))
		for _, r := range raw {
			costs = append(costs, uint64(r%17)+1)
		}
		if len(costs) == 0 {
			costs = []uint64{1}
		}
		n := 3
		sums := make([]uint64, n)
		clocks := make([]uint64, n)
		Run(Config{Seed: seed}, n, func(p *Proc) {
			rng := rand.New(rand.NewSource(int64(p.ID)))
			for i := 0; i < 100; i++ {
				c := costs[rng.Intn(len(costs))]
				sums[p.ID] += c
				p.Step(c)
			}
			clocks[p.ID] = p.Clock()
		})
		for i := range sums {
			if sums[i] != clocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from proc body")
		}
	}()
	Run(Config{Seed: 1}, 2, func(p *Proc) {
		p.Step(1)
		if p.ID == 1 {
			panic("boom")
		}
		p.Step(1)
	})
}

func TestRunZeroProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	Run(Config{Seed: 1}, 0, func(p *Proc) {})
}

// TestPickTieBreak pins the scheduler's tie-breaking order: among procs
// sharing the minimum clock, pick selects the one earliest in the run
// queue (lowest ID until a finished proc is swap-removed), and the grant
// target is runner-up clock + slice. Quantum 1 makes the slice exactly 1,
// so targets are checked exactly.
func TestPickTieBreak(t *testing.T) {
	mk := func(clocks ...uint64) *sched {
		s := &sched{quantum: 1, rng: rand.New(rand.NewSource(1))}
		for i, c := range clocks {
			s.running = append(s.running, &Proc{ID: i, clock: c})
		}
		return s
	}
	cases := []struct {
		name       string
		clocks     []uint64
		wantID     int
		wantTarget uint64
	}{
		{"all-tied-picks-first", []uint64{5, 5, 5}, 0, 6},
		{"strict-min-wins", []uint64{7, 3, 5}, 1, 6},
		{"tied-min-picks-earliest", []uint64{5, 3, 3, 7}, 1, 4},
		{"two-tied", []uint64{2, 2}, 0, 3},
		{"min-at-end", []uint64{9, 9, 4}, 2, 10},
	}
	for _, tc := range cases {
		s := mk(tc.clocks...)
		p, msg := s.pick()
		if p.ID != tc.wantID {
			t.Errorf("%s: picked proc %d, want %d", tc.name, p.ID, tc.wantID)
		}
		if msg.target != tc.wantTarget {
			t.Errorf("%s: target = %d, want %d", tc.name, msg.target, tc.wantTarget)
		}
		if msg.stop {
			t.Errorf("%s: unexpected stop grant", tc.name)
		}
	}
}

// TestPickTieBreakPositional: after a swap-removal the run queue is no
// longer ID-ordered, and ties break by queue position, not ID. This is
// load-bearing for schedule stability: pick must not re-sort.
func TestPickTieBreakPositional(t *testing.T) {
	p1 := &Proc{ID: 1, clock: 5}
	p2 := &Proc{ID: 2, clock: 5}
	s := &sched{quantum: 1, rng: rand.New(rand.NewSource(1)), running: []*Proc{p2, p1}}
	p, _ := s.pick()
	if p != p2 {
		t.Errorf("tied procs in queue order [2, 1]: picked ID %d, want 2 (queue position, not ID)", p.ID)
	}
}

// TestPickSoleRunnerGrants: a sole remaining proc gets an unbounded grant
// (no RNG draw) unless a watchdog is armed, in which case the grant is
// finite so the token keeps cycling through the watchdog check.
func TestPickSoleRunnerGrants(t *testing.T) {
	s := &sched{quantum: 1, rng: rand.New(rand.NewSource(1)),
		running: []*Proc{{ID: 0, clock: 42}}}
	if _, msg := s.pick(); msg.target != ^uint64(0) {
		t.Errorf("sole runner without watchdog: target = %d, want unbounded", msg.target)
	}
	s = &sched{quantum: 1, rng: rand.New(rand.NewSource(1)),
		watchdog: func(uint64) bool { return false },
		running:  []*Proc{{ID: 0, clock: 42}}}
	if _, msg := s.pick(); msg.target != 43 {
		t.Errorf("sole runner with watchdog: target = %d, want 43", msg.target)
	}
}

// TestUnevenFinish: procs finishing at different times must not stall the
// remaining ones.
func TestUnevenFinish(t *testing.T) {
	finish := make([]uint64, 5)
	Run(Config{Seed: 9}, 5, func(p *Proc) {
		for i := 0; i <= p.ID*100; i++ {
			p.Step(2)
		}
		finish[p.ID] = p.Clock()
	})
	for id, c := range finish {
		want := uint64((id*100 + 1) * 2)
		if c != want {
			t.Errorf("proc %d finished at %d, want %d", id, c, want)
		}
	}
}

// TestWatchdogStopsLivelockedRun: procs that would spin forever must unwind
// when the watchdog trips, and Run must return with them marked Stopped.
func TestWatchdogStopsLivelockedRun(t *testing.T) {
	var trips int
	procs := Run(Config{Seed: 3, Watchdog: func(minClock uint64) bool {
		if minClock > 10_000 {
			trips++
			return true
		}
		return false
	}}, 4, func(p *Proc) {
		for { // livelock: spin forever
			p.Step(5)
		}
	})
	for _, p := range procs {
		if !p.Stopped() {
			t.Errorf("proc %d not marked stopped", p.ID)
		}
	}
	if trips != 1 {
		t.Errorf("watchdog consulted after tripping: %d trips", trips)
	}
}

// TestWatchdogStopSparesFinishedProcs: a proc whose body already returned
// is not marked stopped.
func TestWatchdogStopSparesFinishedProcs(t *testing.T) {
	procs := Run(Config{Seed: 3, Watchdog: func(minClock uint64) bool {
		return minClock > 1_000
	}}, 2, func(p *Proc) {
		if p.ID == 0 {
			p.Step(1)
			return
		}
		for {
			p.Step(5)
		}
	})
	if procs[0].Stopped() {
		t.Error("finished proc 0 marked stopped")
	}
	if !procs[1].Stopped() {
		t.Error("spinning proc 1 not marked stopped")
	}
}

// TestWatchdogNeverTrippingIsInvisible: an armed watchdog that never trips
// must not change the schedule.
func TestWatchdogNeverTrippingIsInvisible(t *testing.T) {
	run := func(cfg Config) []uint64 {
		clocks := make([]uint64, 3)
		Run(cfg, 3, func(p *Proc) {
			for i := 0; i < 500; i++ {
				p.Step(uint64(1 + (i+p.ID)%7))
			}
			clocks[p.ID] = p.Clock()
		})
		return clocks
	}
	plain := run(Config{Seed: 11})
	armed := run(Config{Seed: 11, Watchdog: func(uint64) bool { return false }})
	for i := range plain {
		if plain[i] != armed[i] {
			t.Errorf("proc %d clock differs with inert watchdog: %d vs %d", i, plain[i], armed[i])
		}
	}
}

// TestIdentityGrantHookIsInvisible: a Grant hook that returns the slice
// unchanged must produce a byte-identical schedule, because the hook runs
// after the scheduler's own random draw.
func TestIdentityGrantHookIsInvisible(t *testing.T) {
	run := func(cfg Config) []uint64 {
		clocks := make([]uint64, 3)
		Run(cfg, 3, func(p *Proc) {
			for i := 0; i < 500; i++ {
				p.Step(uint64(1 + (i*3+p.ID)%5))
			}
			clocks[p.ID] = p.Clock()
		})
		return clocks
	}
	plain := run(Config{Seed: 7})
	hooked := run(Config{Seed: 7, Grant: func(id int, clock, slice uint64) uint64 { return slice }})
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Errorf("proc %d clock differs with identity grant hook: %d vs %d", i, plain[i], hooked[i])
		}
	}
}

// TestGrantSkewChangesInterleaving: a skewing Grant hook is allowed to (and
// here does) change the interleaving without breaking the simulation.
func TestGrantSkewChangesInterleaving(t *testing.T) {
	var order []int
	Run(Config{Seed: 7, Grant: func(id int, clock, slice uint64) uint64 {
		if id == 0 {
			return 1 // proc 0 gets minimal grants
		}
		return slice * 4
	}}, 2, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Step(3)
			order = append(order, p.ID)
		}
	})
	if len(order) != 100 {
		t.Fatalf("expected 100 steps, got %d", len(order))
	}
}

// poolCounts warms the coroutine pool for n-proc Runs and returns what a
// Run must leave as it found it: the parked coroutines, exactly (a body
// left suspended takes one away), and the live goroutines, which may only
// drop (the goroutine of an earlier test can still be exiting).
func poolCounts(n int) (goroutines, parked int) {
	Run(Config{Seed: 1}, n, func(p *Proc) {})
	idle.Lock()
	parked = len(idle.coros)
	idle.Unlock()
	return runtime.NumGoroutine(), parked
}

func checkPoolCounts(t *testing.T, goroutines, parked int) {
	t.Helper()
	idle.Lock()
	p := len(idle.coros)
	idle.Unlock()
	if p != parked {
		t.Errorf("parked coroutines: %d before Run, %d after", parked, p)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("goroutines: %d before Run, %d after", goroutines, g)
	}
}

// TestHookPanicAfterFinishReachesCaller: the scheduling decision after a
// body returns runs on Run's caller, so a Strategy panicking there must
// surface from Run with its own value, and the suspended bodies must
// unwind at the Step they are parked in instead of running on without a
// scheduler.
func TestHookPanicAfterFinishReachesCaller(t *testing.T) {
	const n, steps = 4, 60
	goroutines, parked := poolCounts(n)
	var panicked bool
	var stepsAfter int
	done := make([]int, n)
	var k int
	strategy := pickFunc(func(c []Choice) Decision {
		if len(c) < n {
			panicked = true
			panic("strategy boom")
		}
		k++
		return Decision{Index: k % len(c), Steps: 1}
	})
	func() {
		defer func() {
			if r := recover(); r != "strategy boom" {
				t.Errorf("Run panicked with %v, want the strategy's value", r)
			}
		}()
		Run(Config{Seed: 1, Strategy: strategy}, n, func(p *Proc) {
			for i := 0; i < steps; i++ {
				if panicked {
					stepsAfter++
				}
				p.Step(1)
				done[p.ID]++
				if p.ID == 0 {
					return
				}
			}
		})
	}()
	if !panicked {
		t.Fatal("strategy never saw a finished proc")
	}
	if stepsAfter != 0 {
		t.Errorf("%d body Steps ran after the strategy panicked", stepsAfter)
	}
	for id, d := range done[1:] {
		if d >= steps {
			t.Errorf("proc %d reached %d/%d steps after the panic", id+1, d, steps)
		}
	}
	checkPoolCounts(t, goroutines, parked)
}

// TestStopBeforeStartSkipsBody: a proc whose first grant is a stop order
// is marked stopped without its body ever running, and its coroutine goes
// back to the pool like any other.
func TestStopBeforeStartSkipsBody(t *testing.T) {
	goroutines, parked := poolCounts(3)
	var started [3]bool
	procs := Run(Config{Strategy: pickFunc(func(c []Choice) Decision {
		if started[0] {
			return Decision{Stop: true}
		}
		return Decision{Index: 0, Target: c[0].Clock + 1}
	})}, 3, func(p *Proc) {
		started[p.ID] = true
		for {
			p.Step(1)
		}
	})
	if started[1] || started[2] {
		t.Errorf("bodies started after the stop order: %v", started)
	}
	for _, p := range procs {
		if !p.Stopped() {
			t.Errorf("proc %d not marked stopped", p.ID)
		}
	}
	checkPoolCounts(t, goroutines, parked)
}

// TestRunLeavesNoGoroutines: every way out of Run — a normal finish, a
// watchdog stop cascade, a body panic and a strategy Stop — parks every
// coroutine it took and leaves no goroutine behind. The parked cases stop
// the run, or panic in a hook, while procs wait parked on a lock that is
// never released, so grants are being served in place when it happens:
// the parked procs must unwind like any other, and the panic must reach
// the caller.
func TestRunLeavesNoGoroutines(t *testing.T) {
	spin := func(p *Proc) {
		for {
			p.Step(3)
		}
	}
	// holdForever: proc 0 takes the lock and never lets go; every other
	// proc parks on it.
	var lock uint64
	var procs [4]*Proc
	holdForever := func(p *Proc) {
		procs[p.ID] = p
		if p.ID == 0 {
			lock = 1
			spin(p)
		}
		waitWhile(p, &lock, 1, true)
		t.Errorf("proc %d got past a lock that is never released", p.ID)
	}
	// parkedGrantPanic panics on the first grant to a parked proc, while
	// that grant is being served in place.
	var panicked bool
	parkedGrantPanic := func(id int, clock uint64) {
		if !panicked && procs[id] != nil && procs[id].wait != nil {
			panicked = true
			panic("hook boom")
		}
	}
	cases := []struct {
		name      string
		cfg       Config
		body      func(p *Proc)
		wantPanic bool
	}{
		{"finish", Config{Seed: 1}, func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Step(uint64(1 + p.ID))
			}
		}, false},
		{"watchdog", Config{Seed: 2, Watchdog: func(minClock uint64) bool { return minClock > 5_000 }}, spin, false},
		{"body panic", Config{Seed: 3}, func(p *Proc) {
			p.Step(5)
			if p.ID == 2 {
				panic("boom")
			}
			p.Step(5)
		}, true},
		{"strategy stop", Config{Seed: 4, Strategy: pickFunc(func(c []Choice) Decision {
			last := len(c) - 1
			if c[last].Clock > 300 {
				return Decision{Stop: true}
			}
			return Decision{Index: last, Steps: 2}
		})}, spin, false},
		{"parked watchdog", Config{Seed: 5, Watchdog: func(minClock uint64) bool { return minClock > 5_000 }}, holdForever, false},
		{"parked strategy stop", Config{Strategy: pickFunc(func(c []Choice) Decision {
			sum := clockSum(c)
			if sum > 8_000 {
				return Decision{Stop: true}
			}
			return Decision{Index: int(sum) % len(c), Steps: 3}
		})}, holdForever, false},
		{"parked hook panic", Config{Seed: 6, OnGrant: parkedGrantPanic,
			Watchdog: func(minClock uint64) bool { return minClock > 5_000 }}, holdForever, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lock, procs, panicked = 0, [4]*Proc{}, false
			goroutines, parked := poolCounts(4)
			var r any
			func() {
				defer func() { r = recover() }()
				Run(tc.cfg, 4, tc.body)
			}()
			if (r != nil) != tc.wantPanic {
				t.Errorf("Run panicked with %v, want a panic: %v", r, tc.wantPanic)
			}
			checkPoolCounts(t, goroutines, parked)
		})
	}
}

// TestBodyGoexitKeepsPoolSound: a body calling runtime.Goexit (t.FailNow
// inside a body, say) ends Run's goroutine, and its dead coroutine must not
// go back to the pool, or a later Run would skip a body.
func TestBodyGoexitKeepsPoolSound(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(Config{Seed: 1}, 2, func(p *Proc) {
			p.Step(1)
			if p.ID == 0 {
				runtime.Goexit()
			}
			p.Step(1)
		})
	}()
	<-done
	ran := make([]bool, 8)
	Run(Config{Seed: 1}, len(ran), func(p *Proc) {
		p.Step(1)
		ran[p.ID] = true
	})
	for id, r := range ran {
		if !r {
			t.Errorf("proc %d's body never ran", id)
		}
	}
}

// firstChoice is a Strategy that always grants the lowest-ID runnable proc
// a single step.
type firstChoice struct{}

func (firstChoice) Pick(cs []Choice) Decision { return Decision{Target: cs[0].Clock + 1} }

// TestWarmRunnerAllocatesNothing: once a Runner has run a configuration,
// running it again allocates nothing, under a strategy and under the
// default policy with per-proc random draws alike.
func TestWarmRunnerAllocatesNothing(t *testing.T) {
	body := func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Step(uint64(p.Rand().Intn(3) + 1))
		}
	}
	for _, cfg := range []Config{{Seed: 3}, {Seed: 3, Strategy: firstChoice{}}} {
		var r Runner
		r.Run(cfg, 3, body)
		if got := testing.AllocsPerRun(20, func() { r.Run(cfg, 3, body) }); got != 0 {
			t.Errorf("strategy %v: warm Run allocates %.0f objects, want 0", cfg.Strategy != nil, got)
		}
	}
}
