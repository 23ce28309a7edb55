package chaos

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/rbtree"
	"hle/internal/tsx"
)

// allSchemes is every elision scheme the harness can build. NoLock is
// excluded: it is a single-threaded baseline with no locks to attack.
var allSchemes = []string{
	"Standard", "HLE", "HLE-HWExt", "RTM-LE", "HLE-SCM",
	"HLE-SCM-ideal", "HLE-SCM-multi", "Pes-SLR", "Opt-SLR", "Opt-SLR-SCM",
}

var soakLocks = []string{"TTAS", "MCS"}

// TestSoakMatrix is the chaos soak: every scheme × {TTAS, MCS} under 20
// randomized fault schedules must stay serializable with no watchdog trip.
// Points fan out across host workers; each is fully deterministic in its
// (scheme, lock, seed) coordinates.
func TestSoakMatrix(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	type point struct {
		scheme, lock string
		seed         int64
	}
	var pts []point
	for _, sch := range allSchemes {
		for _, lk := range soakLocks {
			for s := 1; s <= seeds; s++ {
				pts = append(pts, point{sch, lk, int64(s)})
			}
		}
	}
	results := make([]SoakResult, len(pts))
	harness.ParallelFor(0, len(pts), func(i int) {
		spec := SoakSpec{
			Scheme: harness.SchemeSpec{Scheme: pts[i].scheme, Lock: pts[i].lock},
			Seed:   pts[i].seed,
		}
		results[i] = RunSoak(spec)
	})
	injected := 0
	for i, r := range results {
		p := pts[i]
		if r.Failure != nil {
			t.Errorf("%s/%s seed %d: watchdog trip: %v\n%s",
				p.scheme, p.lock, p.seed, r.Failure, r.Failure.Dump())
			continue
		}
		if r.CheckErr != nil {
			t.Errorf("%s/%s seed %d: not serializable: %v", p.scheme, p.lock, p.seed, r.CheckErr)
		}
		n := r.Injected
		injected += n.Aborts + n.Stalls + n.Squeezes + n.Skews
	}
	if injected == 0 {
		t.Error("soak injected no faults at all — schedules never landed")
	}
}

// TestSoakDeterministic: one soak point replayed gives byte-identical
// results, including the drawn schedule and injection counters.
func TestSoakDeterministic(t *testing.T) {
	spec := SoakSpec{Scheme: harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"}, Seed: 7}
	r1, r2 := RunSoak(spec), RunSoak(spec)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("replay differs:\n%+v\n%+v", r1, r2)
	}
}

// TestSoakFillMatchesRunOne: the soak's fill, run outside simulated time
// (tsx.Machine.Fill) as RunSoak runs it, builds the same checkpoint as the
// same fill in a timed RunOne, and the soak measured on each image gives
// the same result — on a surviving soak and on a starvation trip, whose
// result carries the failure dump.
func TestSoakFillMatchesRunOne(t *testing.T) {
	runOne := func(m *tsx.Machine, body func(*tsx.Thread)) { m.RunOne(body) }
	starve := SoakSpec{
		Scheme:           harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
		Seed:             3,
		Threads:          4,
		OpsPerThread:     400,
		Schedule:         []Fault{{Kind: Preempt, At: 0, Proc: 0, Arg: 1 << 40}},
		LivelockWindow:   1 << 40,
		StarvationWindow: 50_000,
	}
	for _, spec := range []SoakSpec{
		{Scheme: harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"}, Seed: 7},
		starve,
	} {
		spec.defaults()
		filled, timed := fillSoak(spec, (*tsx.Machine).Fill), fillSoak(spec, runOne)
		if !reflect.DeepEqual(filled.fill.Checkpoint(), timed.fill.Checkpoint()) {
			t.Fatalf("%s: Fill built a different soak image than RunOne", spec.Scheme)
		}
		got, want := filled.run(spec), timed.run(spec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: soak on the Fill image:\n%+v\nsoak on the RunOne image:\n%+v", spec.Scheme, got, want)
		}
		if (spec.StarvationWindow == starve.StarvationWindow) != (got.Failure != nil) {
			t.Fatalf("%s: failure = %v, want one exactly on the starvation spec", spec.Scheme, got.Failure)
		}
	}
}

// TestRandomScheduleDeterministic: schedules are a pure function of the
// seed.
func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(11, 8, 150_000, 6)
	b := RandomSchedule(11, 8, 150_000, 6)
	c := RandomSchedule(12, 8, 150_000, 6)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds drew the same schedule: %v", a)
	}
}

// TestRandomScheduleDegenerateInputs pins the documented contract for
// nonsense arguments: empty request -> empty schedule, tiny horizons are
// clamped rather than crashing the divisor draws, and a threadless
// configuration is caller error.
func TestRandomScheduleDegenerateInputs(t *testing.T) {
	cases := []struct {
		name    string
		procs   int
		horizon uint64
		n       int
		wantNil bool
		panics  bool
	}{
		{name: "zero faults", procs: 4, horizon: 100_000, n: 0, wantNil: true},
		{name: "negative faults", procs: 4, horizon: 100_000, n: -3, wantNil: true},
		{name: "zero horizon clamps", procs: 4, horizon: 0, n: 5},
		{name: "tiny horizon clamps", procs: 4, horizon: 7, n: 5},
		{name: "one thread", procs: 1, horizon: 100_000, n: 5},
		{name: "zero procs panics", procs: 0, horizon: 100_000, n: 5, panics: true},
		{name: "negative procs panics", procs: -2, horizon: 100_000, n: 5, panics: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.panics {
				defer func() {
					if recover() == nil {
						t.Error("no panic for a threadless configuration")
					}
				}()
			}
			faults := RandomSchedule(3, tc.procs, tc.horizon, tc.n)
			if tc.panics {
				t.Fatal("unreachable: panic expected")
			}
			if tc.wantNil {
				if faults != nil {
					t.Fatalf("want no faults, got %v", faults)
				}
				return
			}
			if len(faults) != tc.n {
				t.Fatalf("drew %d faults, want %d", len(faults), tc.n)
			}
			for _, f := range faults {
				if f.Until != 0 && f.Until <= f.At {
					t.Errorf("fault %+v has an empty window", f)
				}
				if f.Proc >= tc.procs {
					t.Errorf("fault %+v targets a thread beyond procs=%d", f, tc.procs)
				}
			}
		})
	}
}

// TestEmptyEngineIsInvisible: installing an engine with no faults (hooks
// armed, nothing firing) must leave a measurement run byte-identical to an
// injector-free run — the injection layer is zero-cost when off.
func TestEmptyEngineIsInvisible(t *testing.T) {
	run := func(inject bool) harness.Result {
		mcfg := tsx.DefaultConfig(4)
		mcfg.Seed = 23
		m := tsx.NewMachine(mcfg)
		var scheme core.Scheme
		var w harness.Workload
		m.RunOne(func(th *tsx.Thread) {
			w = harness.NewRBTree(th, 64, harness.MixExtensive)
			w.Populate(th)
			scheme = harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"}.Build(th)
		})
		if inject {
			m.SetInjector(New())
			defer m.SetInjector(nil)
		}
		return harness.Run(m, scheme, w, harness.Config{Threads: 4, CycleBudget: 120_000})
	}
	plain, armed := run(false), run(true)
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("empty engine changed the run:\nplain: %+v\narmed: %+v", plain, armed)
	}
}

// retryForever is the pathological scheme of the paper's Chapter 4 livelock
// argument: retry speculation unconditionally, never take the lock. Under a
// persistent abort source it makes no progress forever.
type retryForever struct{}

func (retryForever) Name() string             { return "Retry-Forever" }
func (retryForever) Setup(t *tsx.Thread)      {}
func (retryForever) Stats(int) core.OpStats   { return core.OpStats{} }
func (retryForever) TotalStats() core.OpStats { return core.OpStats{} }

func (retryForever) Run(t *tsx.Thread, cs func()) core.Result {
	var attempts uint64
	for {
		attempts++
		if ok, _ := t.RTM(cs); ok {
			return core.Result{Attempts: attempts, Spec: true}
		}
		t.Pause()
	}
}

// stormSchedule is the Chapter 4 adversary: an unbounded spurious-abort
// storm against every thread and every line. A retry-forever scheme
// livelocks under it; HLE-SCM survives it serializably because its
// serializing-conflict management falls back to real lock acquisition.
var stormSchedule = []Fault{{Kind: SpuriousStorm, At: 0, Until: 0, Proc: -1, Line: -1}}

func stormSpec(seed int64) SoakSpec {
	return SoakSpec{
		Scheme:         harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"},
		Seed:           seed,
		Threads:        4,
		OpsPerThread:   8,
		Schedule:       stormSchedule,
		LivelockWindow: 200_000,
	}
}

// TestLivelockTripUnderStorm: retry-forever under the storm trips the
// livelock watchdog, completes zero operations, and returns a structured
// failure whose bounded dump replays byte-identically, with or without
// profiling. The stopped run's profile still attributes every abort the
// engine counted.
func TestLivelockTripUnderStorm(t *testing.T) {
	spec := stormSpec(1)
	spec.MkScheme = func(*tsx.Thread) core.Scheme { return retryForever{} }
	spec.Profile = &obs.Options{}
	r := RunSoak(spec)
	if r.Failure == nil {
		t.Fatalf("retry-forever survived the storm: %+v", r)
	}
	if r.Failure.Reason != harness.ReasonLivelock {
		t.Fatalf("reason = %q, want livelock", r.Failure.Reason)
	}
	if r.Ops != 0 {
		t.Errorf("completed %d ops under a total storm", r.Ops)
	}
	if r.Injected.Aborts == 0 {
		t.Error("storm delivered no aborts")
	}
	dump := r.Failure.Dump()
	if !strings.Contains(dump, "inj-abort") {
		t.Errorf("dump shows no injected aborts:\n%s", dump)
	}
	if !strings.Contains(dump, "spurious-storm@0") {
		t.Errorf("dump missing fault-schedule context:\n%s", dump)
	}
	p := r.Profile
	if p == nil {
		t.Fatal("stopped soak exported no profile")
	}
	if p.TotalAborts == 0 || p.CauseSum() != p.TotalAborts || p.EngineAborts != p.TotalAborts {
		t.Errorf("stopped soak attribution: causes %d, observed %d, engine %d",
			p.CauseSum(), p.TotalAborts, p.EngineAborts)
	}
	spec.Profile = nil
	r2 := RunSoak(spec)
	if r2.Failure == nil || r2.Failure.Dump() != dump {
		t.Error("forced trip is not deterministic: dumps differ across replays")
	}
	if r2.Profile != nil {
		t.Error("unprofiled soak returned a profile")
	}
}

// TestSCMSurvivesStorm: HLE-SCM under the identical storm schedule stays
// live and serializable — the paper's claim that SCM cannot livelock even
// when speculation never succeeds.
func TestSCMSurvivesStorm(t *testing.T) {
	spec := stormSpec(1)
	r := RunSoak(spec)
	if r.Failure != nil {
		t.Fatalf("HLE-SCM tripped under storm:\n%s", r.Failure.Dump())
	}
	if r.CheckErr != nil {
		t.Fatalf("HLE-SCM not serializable under storm: %v", r.CheckErr)
	}
	if want := spec.Threads * spec.OpsPerThread; r.Ops != want {
		t.Errorf("ops = %d, want %d", r.Ops, want)
	}
	if r.Injected.Aborts == 0 {
		t.Error("storm delivered no aborts")
	}
}

// TestStarvationTrip: preempting one thread for effectively forever while
// the others keep completing operations trips the starvation detector and
// names the victim.
func TestStarvationTrip(t *testing.T) {
	spec := SoakSpec{
		Scheme:       harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
		Seed:         3,
		Threads:      4,
		OpsPerThread: 400,
		Schedule: []Fault{
			{Kind: Preempt, At: 0, Proc: 0, Arg: 1 << 40},
		},
		LivelockWindow:   1 << 40,
		StarvationWindow: 50_000,
	}
	r := RunSoak(spec)
	if r.Failure == nil {
		t.Fatalf("no starvation trip: %+v", r)
	}
	if r.Failure.Reason != harness.ReasonStarvation {
		t.Fatalf("reason = %q, want starvation\n%s", r.Failure.Reason, r.Failure.Dump())
	}
	if r.Failure.Thread != 0 {
		t.Errorf("victim = %d, want 0", r.Failure.Thread)
	}
	if r.Injected.Stalls != 1 {
		t.Errorf("stalls injected = %d, want 1", r.Injected.Stalls)
	}
}

// TestSoakFailureOutlivesItsMachine: a tripped soak's failure holds
// nothing of the machine it ran on. The next soak's measured phase
// recycles the machine the first released — memory, thread table and
// trace ring — and the first failure comes through it unchanged.
func TestSoakFailureOutlivesItsMachine(t *testing.T) {
	spec := SoakSpec{
		Scheme:       harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
		Seed:         3,
		Threads:      4,
		OpsPerThread: 400,
		Schedule: []Fault{
			{Kind: Preempt, At: 0, Proc: 0, Arg: 1 << 40},
		},
		LivelockWindow:   1 << 40,
		StarvationWindow: 50_000,
	}
	f := RunSoak(spec).Failure
	if f == nil || len(f.Threads) == 0 || len(f.Events) == 0 {
		t.Fatalf("the first soak must trip with thread states and events: %+v", f)
	}
	want := *f
	want.Cycle = slices.Clone(f.Cycle)
	want.Threads = slices.Clone(f.Threads)
	want.Events = slices.Clone(f.Events)

	// The fault-free second soak runs every operation, overwriting all of
	// the recycled machine's trace ring.
	next := spec
	next.Schedule = []Fault{}
	if r := RunSoak(next); r.Failure != nil || r.CheckErr != nil || r.Ops != spec.Threads*spec.OpsPerThread {
		t.Fatalf("the second soak must complete: %+v", r)
	}
	if !reflect.DeepEqual(*f, want) {
		t.Errorf("failure changed after the next soak:\n%s\nwas\n%s", f.Dump(), want.Dump())
	}
}

// TestSnapshotRestoreUnderChaos: simulated memory survives a fault-riddled
// run and restores exactly, with mem.DebugChecks auditing every access. The
// round trip proves injected aborts and capacity squeezes never leak
// partial transactional state into memory.
func TestSnapshotRestoreUnderChaos(t *testing.T) {
	old := mem.DebugChecks
	mem.DebugChecks = true
	defer func() { mem.DebugChecks = old }()

	mcfg := tsx.DefaultConfig(4)
	mcfg.Seed = 9
	mcfg.TraceRing = 64
	m := tsx.NewMachine(mcfg)
	var tree *rbtree.Tree
	var scheme core.Scheme
	m.RunOne(func(th *tsx.Thread) {
		scheme = harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"}.Build(th)
		tree = rbtree.New(th)
		for k := uint64(0); k < 64; k += 2 {
			tree.Insert(th, k, k*10)
		}
	})
	snap := m.Mem.Snapshot()

	eng := New(
		Fault{Kind: SpuriousStorm, At: 0, Until: 40_000, Proc: -1, Line: -1},
		Fault{Kind: CapacitySqueeze, At: 0, Until: 0, Proc: -1, Line: -1, Arg: 2},
	)
	m.SetInjector(eng)
	m.Run(4, func(th *tsx.Thread) {
		scheme.Setup(th)
		for i := 0; i < 40; i++ {
			key := uint64(th.Rand().Intn(64))
			switch th.Rand().Intn(2) {
			case 0:
				scheme.Run(th, func() { tree.Insert(th, key, key+1) })
			default:
				scheme.Run(th, func() { tree.Delete(th, key) })
			}
		}
	})
	m.SetInjector(nil)
	if n := eng.Counters(); n.Aborts == 0 || n.Squeezes == 0 {
		t.Fatalf("faults never landed mid-transaction: %+v", n)
	}
	if reflect.DeepEqual(m.Mem.Snapshot().Words(), snap.Words()) {
		t.Fatal("chaotic run mutated nothing — test is vacuous")
	}

	m.Mem.Restore(snap)
	if !reflect.DeepEqual(m.Mem.Snapshot().Words(), snap.Words()) {
		t.Error("restore did not round-trip the word array")
	}
	// An independent memory from the same snapshot agrees word-for-word.
	fresh := new(mem.Memory)
	fresh.Restore(snap)
	if !reflect.DeepEqual(fresh.Snapshot().Words(), snap.Words()) {
		t.Error("a new memory restored from the snapshot disagrees with it")
	}
	// The restored tree reads back exactly the populated contents.
	m.RunOne(func(th *tsx.Thread) {
		for k := uint64(0); k < 64; k++ {
			v, ok := tree.Lookup(th, k)
			if wantOk := k%2 == 0; ok != wantOk || (ok && v != k*10) {
				t.Errorf("after restore: key %d = (%d,%v), want (%d,%v)", k, v, ok, k*10, wantOk)
			}
		}
	})
}
