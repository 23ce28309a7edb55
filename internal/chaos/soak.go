package chaos

import (
	"hle/internal/adapt"
	"hle/internal/check"
	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/obs"
	"hle/internal/rbtree"
	"hle/internal/tsx"
)

// SoakSpec declares one soak point: a scheme × lock combination driven
// through a serializability-checked red-black-tree history while a fault
// schedule fires, with liveness watchdogs armed. Every field of the
// declaration determines the run; equal specs give equal results.
type SoakSpec struct {
	// Scheme selects the scheme/lock by name (see harness.SchemeSpec).
	Scheme harness.SchemeSpec
	// MkScheme, when non-nil, overrides Scheme's construction — used by
	// tests that soak pathological schemes (unbounded retry loops).
	MkScheme func(t *tsx.Thread) core.Scheme
	// Seed drives the machine and the fault schedule.
	Seed int64
	// Threads is the worker count (default 8).
	Threads int
	// OpsPerThread is the operation count each thread completes
	// (default 60). The loop is count-based, not budget-based, so every
	// surviving run executes the same logical history.
	OpsPerThread int
	// Keys is the key-domain size (default 64; small keeps conflicts hot).
	Keys int
	// Faults sizes the random schedule (default 6); ignored when
	// Schedule is set.
	Faults int
	// Horizon spreads the random schedule over this many virtual cycles
	// (default 150000 — comparable to the run's natural length).
	Horizon uint64
	// Schedule overrides the random schedule entirely.
	Schedule []Fault
	// LivelockWindow and StarvationWindow arm the watchdog (defaults
	// harness.LivelockWindow for the scheme's machine, and four times
	// that).
	LivelockWindow   uint64
	StarvationWindow uint64
	// Profile, when non-nil, profiles the soak's measured run
	// (harness.Profiler) so the aborts the fault schedule provokes are
	// attributed. Profiling is passive: the soak runs byte-identically
	// with or without it.
	Profile *obs.Options
	// Adapt tunes the controller when Scheme.Scheme is "Adaptive"
	// (nil selects the adapt defaults). Ignored otherwise.
	Adapt *adapt.Config
}

// SoakResult is the outcome of one soak point.
type SoakResult struct {
	// Ops is the number of recorded (completed) operations.
	Ops int
	// Failure is the watchdog diagnostic if the run was stopped.
	Failure *harness.Failure
	// CheckErr is the serializability verdict (nil = serializable).
	// Stopped runs skip verification: interrupted threads leave ticket
	// gaps by construction.
	CheckErr error
	// Injected tallies the faults actually delivered.
	Injected Counters
	// Schedule is the fault schedule that ran (useful when it was drawn
	// randomly).
	Schedule []Fault
	// Profile is the measured run's profile (nil unless spec.Profile
	// was set), exported also when the watchdog stopped the run.
	Profile *obs.Profile

	// Adaptive-scheme extras, populated only when the soaked scheme was
	// "Adaptive": the controller's transition log, the level in force
	// when the run ended, and how many observed windows were spent at
	// each level.
	Transitions  []adapt.Transition
	FinalLevel   adapt.Level
	LevelWindows [adapt.NumLevels]int
}

// Ok reports whether the run survived: no watchdog trip, serializable.
func (r SoakResult) Ok() bool { return r.Failure == nil && r.CheckErr == nil }

func (s *SoakSpec) defaults() {
	if s.Threads == 0 {
		s.Threads = 8
	}
	if s.OpsPerThread == 0 {
		s.OpsPerThread = 60
	}
	if s.Keys == 0 {
		s.Keys = 64
	}
	if s.Faults == 0 {
		s.Faults = 6
	}
	if s.Horizon == 0 {
		s.Horizon = 150_000
	}
	if s.LivelockWindow == 0 {
		// Soak seeds 6 and 16 exercise the HWExt window's suspension gap.
		s.LivelockWindow = harness.LivelockWindow(s.Scheme)
	}
	if s.StarvationWindow == 0 {
		s.StarvationWindow = 4 * s.LivelockWindow
	}
}

// RunSoak executes one soak point. It fills the tree fault-free on a new
// machine, outside simulated time (tsx.Machine.Fill), then runs the
// measured phase on a fork of that machine's checkpoint. The fork is taken
// before the fill machine is released, so it recycles a machine an earlier
// point released, and it starts with an empty trace ring, so a failure
// dump shows only the measured run. Deterministic: equal specs produce
// equal results, including dump bytes on failure.
func RunSoak(spec SoakSpec) SoakResult {
	spec.defaults()
	return fillSoak(spec, (*tsx.Machine).Fill).run(spec)
}

// soakImage is a soak's filled starting state: the fill machine and the
// Go-side handles into its memory.
type soakImage struct {
	fill  *tsx.Machine
	tree  *rbtree.Tree
	rec   *check.Recorder
	model map[uint64]uint64
}

// fillSoak inserts Keys/2 random keys into a new tree on a new machine,
// running the fill body with fillWith (Machine.Fill; tests pass a RunOne
// to check that Fill builds the same image).
func fillSoak(spec SoakSpec, fillWith func(*tsx.Machine, func(*tsx.Thread))) soakImage {
	cfg := tsx.DefaultConfig(spec.Threads)
	cfg.Seed = spec.Seed
	cfg.MemWords = 1 << 18
	cfg.TraceRing = 256
	img := soakImage{fill: tsx.NewMachine(cfg), model: map[uint64]uint64{}}
	fillWith(img.fill, func(th *tsx.Thread) {
		img.tree = rbtree.New(th)
		img.rec = check.NewRecorder(th)
		for i := 0; i < spec.Keys/2; i++ {
			k := uint64(th.Rand().Intn(spec.Keys))
			if img.tree.Insert(th, k, k+1) {
				img.model[k] = k + 1
			}
		}
	})
	return img
}

// run forks the filled image, releases the fill machine and runs the
// soak's measured phase on the fork.
func (img soakImage) run(spec SoakSpec) SoakResult {
	m := tsx.FromCheckpoint(img.fill.Checkpoint())
	img.fill.Release()
	tree, rec, model := img.tree, img.rec, img.model

	mo := locks.NewMonitor()
	sspec := spec.Scheme
	sspec.Monitor = mo
	sspec.Adapt = spec.Adapt

	var scheme core.Scheme
	m.RunOne(func(th *tsx.Thread) {
		if spec.MkScheme != nil {
			scheme = spec.MkScheme(th)
		} else {
			scheme = sspec.Build(th)
		}
	})
	schedule := spec.Schedule
	if schedule == nil {
		schedule = RandomSchedule(spec.Seed, spec.Threads, spec.Horizon, spec.Faults)
	}
	engine := New(schedule...)
	m.SetInjector(engine)
	label := sspec.String()
	if spec.MkScheme != nil {
		label = scheme.Name()
	}
	wd := harness.NewWatchdog(harness.WatchdogConfig{
		LivelockWindow:   spec.LivelockWindow,
		StarvationWindow: spec.StarvationWindow,
		Monitor:          mo,
		Context:          label + "; " + engine.String(),
	}, spec.Threads)
	m.SetWatchdog(wd.Check)

	prof := harness.NewProfiler(spec.Profile, label)
	threads := prof.Run(m, spec.Threads, func(th *tsx.Thread) {
		scheme.Setup(th)
		for i := 0; i < spec.OpsPerThread; i++ {
			key := uint64(th.Rand().Intn(spec.Keys))
			switch th.Rand().Intn(3) {
			case 0:
				rec.RunChecked(th, scheme, "insert", key, func() uint64 {
					return b01(tree.Insert(th, key, key+1))
				})
			case 1:
				rec.RunChecked(th, scheme, "delete", key, func() uint64 {
					return b01(tree.Delete(th, key))
				})
			default:
				rec.RunChecked(th, scheme, "lookup", key, func() uint64 {
					v, ok := tree.Lookup(th, key)
					return v<<1 | b01(ok)
				})
			}
			wd.NoteOp(th.ID, th.Clock())
		}
		wd.NoteDone(th.ID)
	})
	m.SetWatchdog(nil)
	m.SetInjector(nil)

	res := SoakResult{Ops: rec.Len(), Injected: engine.Counters(), Schedule: schedule, Profile: prof.Profile()}
	if ad, ok := scheme.(*core.Adaptive); ok {
		res.Transitions = append([]adapt.Transition(nil), ad.Transitions()...)
		res.FinalLevel = ad.Level()
		res.LevelWindows = ad.Controller().LevelWindows()
	}
	if m.Stopped() {
		res.Failure = wd.Failure(m, threads)
	}
	m.Release()
	if res.Failure != nil {
		return res
	}
	// The sequential witness starts from the populated state.
	res.CheckErr = rec.Verify(func(kind string, key uint64) uint64 {
		switch kind {
		case "insert":
			_, had := model[key]
			if !had {
				model[key] = key + 1
			}
			return b01(!had)
		case "delete":
			_, had := model[key]
			delete(model, key)
			return b01(had)
		default:
			v, ok := model[key]
			return v<<1 | b01(ok)
		}
	})
	return res
}

func b01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
