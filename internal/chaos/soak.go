package chaos

import (
	"sync"

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
		s.LivelockWindow = harness.LivelockWindow(s.Scheme.Machine(tsx.Config{}))
	}
	if s.StarvationWindow == 0 {
		s.StarvationWindow = 4 * s.LivelockWindow
	}
}

// SoakImage is the scheme-free half of a soak machine: the red-black tree
// and recorder cell allocated and the tree populated fault-free, captured
// as a checkpoint. Many soak points share one image — the fill depends
// only on the image coordinates (seed, threads, keys, and the machine
// flags some schemes require), not on which scheme or fault schedule the
// point runs — so a battery builds each distinct image once and forks it
// per point instead of re-filling.
type SoakImage struct {
	cp        *tsx.Checkpoint
	tree      *rbtree.Tree
	rec       *check.Recorder
	populated map[uint64]uint64
	key       imageKey
}

// imageKey is an image's fill coordinates. The machine flags are those
// the scheme's table entry sets (harness.SchemeSpec.Machine); images are
// only shareable between specs with equal flags.
type imageKey struct {
	seed           int64
	threads, keys  int
	hwExt, nestHLE bool
}

// soakMachine returns the soak machine configuration for spec (defaults
// applied) and the image coordinates it fills.
func soakMachine(spec SoakSpec) (tsx.Config, imageKey) {
	cfg := tsx.DefaultConfig(spec.Threads)
	cfg.Seed = spec.Seed
	cfg.MemWords = 1 << 18
	cfg.TraceRing = 256
	cfg = spec.Scheme.Machine(cfg)
	return cfg, imageKey{spec.Seed, spec.Threads, spec.Keys, cfg.HWExt, cfg.NestHLEInRTM}
}

// BuildSoakImage fills a soak machine for the spec's coordinates and
// checkpoints it. The scheme is NOT constructed here — it allocates per
// point in RunSoakFrom, after the shared image — so the image serves every
// scheme/lock/schedule combination with matching coordinates.
func BuildSoakImage(spec SoakSpec) *SoakImage {
	spec.defaults()
	cfg, key := soakMachine(spec)
	img := &SoakImage{populated: map[uint64]uint64{}, key: key}
	m := tsx.NewMachine(cfg)
	m.RunOne(func(th *tsx.Thread) {
		img.tree = rbtree.New(th)
		img.rec = check.NewRecorder(th)
		for i := 0; i < spec.Keys/2; i++ {
			k := uint64(th.Rand().Intn(spec.Keys))
			if img.tree.Insert(th, k, k+1) {
				img.populated[k] = k + 1
			}
		}
	})
	img.cp = m.Checkpoint()
	m.Release()
	return img
}

// ImageCache shares soak images across points keyed by their fill
// coordinates. A battery sweeping many scheme × lock × schedule points
// over the same seeds builds each distinct image once; concurrent
// requests for the same key serialize on its build, different keys build
// in parallel. The zero value is ready to use.
type ImageCache struct {
	mu sync.Mutex
	m  map[imageKey]*imageSlot
}

type imageSlot struct {
	once sync.Once
	img  *SoakImage
}

// For returns the image matching spec's fill coordinates, building it on
// first request.
func (c *ImageCache) For(spec SoakSpec) *SoakImage {
	spec.defaults()
	_, k := soakMachine(spec)
	c.mu.Lock()
	if c.m == nil {
		c.m = map[imageKey]*imageSlot{}
	}
	s := c.m[k]
	if s == nil {
		s = &imageSlot{}
		c.m[k] = s
	}
	c.mu.Unlock()
	s.once.Do(func() { s.img = BuildSoakImage(spec) })
	return s.img
}

// RunSoak executes one soak point from scratch: build and fill the
// machine, then run the measured phase. Deterministic: equal specs produce
// equal results, including dump bytes on failure. Batteries that share
// coordinates across points should BuildSoakImage once and call
// RunSoakFrom instead.
func RunSoak(spec SoakSpec) SoakResult {
	spec.defaults()
	return RunSoakFrom(BuildSoakImage(spec), spec)
}

// RunSoakFrom executes one soak point on a fork of a prebuilt image: the
// machine state is copied from the checkpoint (skipping the fill phase),
// the scheme is constructed on the fork, and the measured run proceeds
// exactly as a scratch run would — a fork and a scratch run of the same
// spec return identical results. The fork is released once the result
// holds everything it needs from it. Panics if the image's coordinates do
// not match the spec's.
func RunSoakFrom(img *SoakImage, spec SoakSpec) SoakResult {
	spec.defaults()
	if _, k := soakMachine(spec); img.key != k {
		panic("chaos: soak image coordinates do not match spec")
	}
	m := tsx.FromCheckpoint(img.cp)

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
	tree := img.tree
	rec := img.rec.Fresh()
	populated := img.populated

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
	model := make(map[uint64]uint64, len(populated))
	for k, v := range populated {
		model[k] = v
	}
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
