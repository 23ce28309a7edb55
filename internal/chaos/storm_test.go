package chaos

import (
	"reflect"
	"testing"

	"hle/internal/adapt"
	"hle/internal/harness"
)

// Storm-recovery soak geometry: the storm covers [40k, 140k) — 20
// controller windows at the default 5k cycles — and the count-based run
// is sized to keep threads issuing operations well past the worst-case
// re-promotion bound. The workload is deliberately lighter than the
// default soak's: storm-recovery is only observable against a baseline
// where speculation is healthy, so natural conflicts must stay below the
// promotion band before and after the storm. The default 64-key tree at
// 8 threads is avalanche-grade with no storm at all, and even a big tree
// avalanches on lock-line conflicts past a few threads (TTAS elision is
// ~5%-abort healthy at 2 threads, ~43% at 4).
const (
	stormStart   = 40_000
	stormEnd     = 140_000
	stormOps     = 2_600
	stormKeys    = 2048
	stormThreads = 2
)

// stormRest is the level the controller is expected to settle at when the
// workload is healthy — the best static choice per lock. Elision over
// TTAS is healthy at storm-soak scale; over MCS it is structurally broken
// (any acquisition rewrites the queue word every speculator subscribed
// to, the avalanche of Chapter 3), so the adaptive resting point is SCM.
func stormRest(lock string) adapt.Level {
	if lock == "MCS" {
		return adapt.SCM
	}
	return adapt.Elide
}

// stormSoakSpec is the adaptive soak spec for one scenario point.
func stormSoakSpec(sc RecoveryScenario, lock string, seed int64) SoakSpec {
	return SoakSpec{
		Scheme:       harness.SchemeSpec{Scheme: "Adaptive", Lock: lock},
		Seed:         seed,
		Threads:      stormThreads,
		OpsPerThread: stormOps,
		Keys:         stormKeys,
		Schedule:     sc.Faults,
		Adapt:        &adapt.Config{},
	}
}

// checkStormRecovery asserts the tentpole's four robustness properties on
// one adaptive storm-recovery soak:
//
//	(a) the controller degrades to the Serial floor within the
//	    config-derived window bound of the storm starting — and not
//	    before it, since the pre-storm workload is healthy;
//	(b) it re-promotes after the storm passes, within the
//	    probation-aware bound, back to the lock's healthy resting level
//	    (Elide for TTAS; SCM for MCS, whose elision is structurally
//	    avalanche-bound), and ends the run off the Serial floor;
//	(c) it never trips a liveness watchdog and never exceeds the flap
//	    bound on total transitions;
//	(d) the run stays serializable.
func checkStormRecovery(t *testing.T, name string, sc RecoveryScenario, lock string, r SoakResult) {
	t.Helper()
	cfg := (adapt.Config{}).WithDefaults()
	wcyc := cfg.WindowCycles
	rest := stormRest(lock)

	// (c) liveness and (d) serializability first: a tripped or
	// non-serializable run makes the transition log meaningless.
	if r.Failure != nil {
		t.Errorf("%s: watchdog trip: %v\n%s", name, r.Failure, r.Failure.Dump())
		return
	}
	if r.CheckErr != nil {
		t.Errorf("%s: not serializable: %v", name, r.CheckErr)
	}

	// (a) bounded demotion to the serializing floor during the storm.
	demoteBy := sc.StormStart + uint64(demoteBoundWindows(cfg))*wcyc
	var toSerial *adapt.Transition
	for i := range r.Transitions {
		if r.Transitions[i].To == adapt.Serial {
			toSerial = &r.Transitions[i]
			break
		}
	}
	if toSerial == nil {
		t.Errorf("%s: controller never reached the Serial floor; transitions: %v",
			name, r.Transitions)
	} else if toSerial.Clock < sc.StormStart || toSerial.Clock > demoteBy {
		t.Errorf("%s: Serial demotion at clock %d, want within storm [%d, %d]; transitions: %v",
			name, toSerial.Clock, sc.StormStart, demoteBy, r.Transitions)
	}

	// (b) bounded re-promotion after the storm, back to the lock's
	// resting level. Up to three demotions can precede recovery (a
	// natural rung for locks resting at SCM plus the storm's), so the
	// bound uses that probation level.
	promoteBy := sc.StormEnd + uint64(promoteBoundWindows(cfg, 3))*wcyc
	var recovered *adapt.Transition
	for i := range r.Transitions {
		tr := &r.Transitions[i]
		if tr.To == rest && tr.Clock >= sc.StormEnd {
			recovered = tr
			break
		}
	}
	if recovered == nil {
		t.Errorf("%s: controller never re-promoted to %s after the storm (final level %s); transitions: %v",
			name, rest, r.FinalLevel, r.Transitions)
	} else if recovered.Clock > promoteBy {
		t.Errorf("%s: re-promotion at clock %d, want by %d; transitions: %v",
			name, recovered.Clock, promoteBy, r.Transitions)
	}
	// The run must end off the Serial floor. It may end above the resting
	// level: a controller at rest keeps probing the next level up at
	// probation-spaced intervals (that is the designed optimism), so an
	// MCS run can legitimately finish mid-probe at Elide.
	if r.FinalLevel > rest {
		t.Errorf("%s: run ended at level %s, want %s or better; transitions: %v",
			name, r.FinalLevel, rest, r.Transitions)
	}

	// (c) flap bound: a full storm-recovery cycle needs at most two
	// demotions and two promotions; locks resting at SCM add a natural
	// pre-storm demotion and probation-spaced probes of the level above
	// in the post-storm tail. More transitions than probation-backoff
	// probing can explain is flapping.
	const flapBound = 12
	if len(r.Transitions) > flapBound {
		t.Errorf("%s: %d transitions exceeds flap bound %d: %v",
			name, len(r.Transitions), flapBound, r.Transitions)
	}

	// Every drained swap must stamp coherent clocks.
	for _, tr := range r.Transitions {
		if tr.SwapClock != 0 && tr.DrainClock < tr.SwapClock {
			t.Errorf("%s: transition %v drained before it swapped", name, tr)
		}
	}
}

// TestStormRecoveryMatrix is the tentpole soak matrix: every
// storm-recovery scenario × {TTAS, MCS} × seeds, run host-parallel, each
// point asserting bounded demotion, bounded re-promotion, no flapping, no
// watchdog trips, and serializability.
func TestStormRecoveryMatrix(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	scenarios := StormRecoveryScenarios(stormStart, stormEnd)
	type point struct {
		sc   RecoveryScenario
		lock string
		seed int64
	}
	var pts []point
	for _, sc := range scenarios {
		for _, lk := range soakLocks {
			for s := 1; s <= seeds; s++ {
				pts = append(pts, point{sc, lk, int64(s)})
			}
		}
	}
	results := make([]SoakResult, len(pts))
	harness.ParallelFor(0, len(pts), func(i int) {
		results[i] = RunSoak(stormSoakSpec(pts[i].sc, pts[i].lock, pts[i].seed))
	})
	for i, r := range results {
		p := pts[i]
		name := p.sc.Name + "/" + p.lock + "/seed" + string(rune('0'+p.seed))
		checkStormRecovery(t, name, p.sc, p.lock, r)
	}
}

// TestStormRecoveryDeterministic: storm-recovery soaks are byte-identical
// between host-parallel and serial execution — one point per scenario is
// re-run alone and compared field by field (including the transition log)
// against its matrix-run counterpart.
func TestStormRecoveryDeterministic(t *testing.T) {
	scenarios := StormRecoveryScenarios(stormStart, stormEnd)
	specs := make([]SoakSpec, len(scenarios))
	for i, sc := range scenarios {
		specs[i] = stormSoakSpec(sc, soakLocks[i%len(soakLocks)], 1)
	}
	par := make([]SoakResult, len(specs))
	harness.ParallelFor(0, len(specs), func(i int) {
		par[i] = RunSoak(specs[i])
	})
	for i, spec := range specs {
		seq := RunSoak(spec)
		if !reflect.DeepEqual(par[i], seq) {
			t.Errorf("%s: parallel result differs from serial rerun:\npar: %+v\nseq: %+v",
				scenarios[i].Name, par[i], seq)
		}
	}
}

// demoteBoundWindows returns a worst-case bound, in windows, for the
// controller to reach the Serial floor from Elide once every window turns
// bad (a saturating storm): each rung waits out the dwell minimum, builds
// its demotion streak, and spends one window applying the swap, plus one
// window of slack for the storm starting mid-window.
func demoteBoundWindows(c adapt.Config) int {
	c = c.WithDefaults()
	per := max(c.DwellWindows, c.DemoteWindows)
	return (adapt.NumLevels-1)*(per+1) + 2
}

// promoteBoundWindows returns a worst-case bound, in windows, for the
// controller to climb back to Elide once every window turns good, given
// that at most demotions demotions occurred: the residual probation
// embargo (doubled per demotion, capped) plus per-rung streak building
// and dwell, plus slack for the storm ending mid-window.
func promoteBoundWindows(c adapt.Config, demotions int) int {
	c = c.WithDefaults()
	prob := c.ProbationWindows
	for i := 1; i < demotions; i++ {
		prob *= 2
		if prob >= c.ProbationMax {
			prob = c.ProbationMax
			break
		}
	}
	per := max(c.DwellWindows, c.PromoteWindows)
	return prob + (adapt.NumLevels-1)*(per+1) + 2
}

func TestBoundHelpers(t *testing.T) {
	cfg := (adapt.Config{}).WithDefaults()
	// The demote bound covers the worst case the hysteresis permits: per
	// rung, max(streak, dwell) windows plus the application window, plus
	// slack for a storm starting mid-window.
	per := cfg.DwellWindows
	if cfg.DemoteWindows > per {
		per = cfg.DemoteWindows
	}
	if got, want := demoteBoundWindows(cfg), (adapt.NumLevels-1)*(per+1)+2; got != want {
		t.Fatalf("demoteBoundWindows %d, want %d", got, want)
	}
	// The promote bound grows with the demotion count (probation doubling)
	// and saturates at ProbationMax.
	if a, b := promoteBoundWindows(cfg, 1), promoteBoundWindows(cfg, 3); a >= b {
		t.Fatalf("promote bound not increasing with demotions: %d vs %d", a, b)
	}
	if promoteBoundWindows(cfg, 100) != promoteBoundWindows(cfg, 200) {
		t.Fatalf("promote bound not capped")
	}
	// The bounds default their config, so the zero Config works too.
	if demoteBoundWindows(adapt.Config{}) != demoteBoundWindows(cfg) {
		t.Fatalf("zero-Config bound differs from defaulted bound")
	}
}
