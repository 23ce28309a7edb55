package explore

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// quickBatteryDigest pins the quick battery's report: the SHA-256 of every
// Battery(true) result's Line(), each followed by a newline, in battery
// order. It moves only when a search statistic moves, so a change that
// leaks state between replays (a reused machine or rig that does not start
// exactly like a fresh fork) fails here even when every verdict stays
// clean. A change that moves it on purpose re-pins it and names the moved
// lines and the reason in CHANGES.md.
const quickBatteryDigest = "c78ea6bffdefc7c23d551e83b3c834645cbc474872790dcc4ea23ebd5f8e2960"

// quickBatteryForks pins the quick battery's fork accounting, summed over
// its runs: Forks, ScratchReplays and SpecWasted. Line omits these, so the
// digest cannot see a bank that forks different nodes; like
// TestForkCountersPinned's columns they move only when the chain
// predictor or the bank's hand-on rule does.
var quickBatteryForks = [3]uint64{192236, 211197, 178136}

// TestQuickBattery is the CI tier of the acceptance sweep: every scheme
// crossed with every sweep lock at 2 threads x 1 op, plus a three-thread
// configuration, all with zero violations. The full 2x2 sweep is the
// hle-bench -explore run recorded in EXPERIMENTS.md.
func TestQuickBattery(t *testing.T) {
	h := sha256.New()
	var forks [3]uint64
	for _, cfg := range Battery(true) {
		r := Run(cfg)
		t.Log(r.Line())
		fmt.Fprintln(h, r.Line())
		forks[0] += r.Forks
		forks[1] += r.ScratchReplays
		forks[2] += r.SpecWasted
		if r.Violation != nil {
			t.Errorf("%s: %s\n%s", cfg.Label(), r.Violation.Error(), r.Violation.Failure.Dump())
		}
		if r.Schedules == 0 {
			t.Errorf("%s: no complete schedule explored", cfg.Label())
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != quickBatteryDigest {
		t.Errorf("quick battery digest %s, pinned %s: a search statistic moved", got, quickBatteryDigest)
	}
	if forks != quickBatteryForks {
		t.Errorf("quick battery forks/scratch/wasted %v, pinned %v: the bank forked different nodes", forks, quickBatteryForks)
	}
}

// TestDepthTwoOps explores two-operation configurations, where the
// serializability checker sees genuinely reordered histories (op 2 of one
// thread racing op 1 of the other).
func TestDepthTwoOps(t *testing.T) {
	cfgs := []Config{
		{Scheme: "Standard", Lock: "TTAS", Threads: 2, Ops: 2},
		{Scheme: "Standard", Lock: "AdjCLH", Threads: 2, Ops: 2},
	}
	if !testing.Short() {
		cfgs = append(cfgs, Config{Scheme: "HLE", Lock: "AdjTicket", Threads: 2, Ops: 2})
	}
	for _, cfg := range cfgs {
		r := Run(cfg)
		t.Log(r.Line())
		if r.Violation != nil {
			t.Errorf("%s: %s\n%s", cfg.Label(), r.Violation.Error(), r.Violation.Failure.Dump())
		}
	}
}

// TestMutantsCaught proves the checker's teeth: each seeded fault is
// detected, with a deterministic counterexample schedule and a non-empty
// diagnostic dump. The expected violation kinds are pinned: blind CLH
// release orphans a waiter (progress), and both lazy subscription and the
// missing suspend-on-miss let a transaction commit against a concurrent
// non-speculative critical section, losing an update (serializability).
// The three lazy-pipeline mutants each disable one ingredient of the
// fixed commit sequence and all lose an update the same way — committing
// (or having already published, for drain-before-check) over a
// pessimistic holder.
func TestMutantsCaught(t *testing.T) {
	wantKind := map[string]string{
		MutantCLHBlindRelease:   "progress",
		MutantSCMLazy:           "serializability",
		MutantHWExtNoSuspend:    "serializability",
		MutantLazySkipCheck:     "serializability",
		MutantLazyDrainFirst:    "serializability",
		MutantLazyNoWindowAbort: "serializability",
	}
	for _, cfg := range Mutants() {
		first := Run(cfg)
		if first.Violation == nil {
			t.Errorf("%s: seeded fault not detected", cfg.Label())
			continue
		}
		v := first.Violation
		t.Logf("%s: %s", cfg.Label(), v.Error())
		if want := wantKind[cfg.Mutant]; v.Kind != want {
			t.Errorf("%s: violation kind %q, want %q", cfg.Label(), v.Kind, want)
		}
		if len(v.Schedule) == 0 || len(v.Schedule) > 32 {
			t.Errorf("%s: counterexample schedule has %d decisions, want a short one (BFS finds minimal)",
				cfg.Label(), len(v.Schedule))
		}
		if v.Failure == nil || v.Failure.Dump() == "" {
			t.Errorf("%s: violation carries no diagnostic dump", cfg.Label())
		}
		// The counterexample must be deterministic: an independent rerun
		// finds the identical minimal schedule.
		second := Run(cfg)
		if second.Violation == nil {
			t.Errorf("%s: fault detected on first run but not second", cfg.Label())
		} else if !reflect.DeepEqual(v.Schedule, second.Violation.Schedule) || v.Kind != second.Violation.Kind {
			t.Errorf("%s: counterexample not deterministic:\n  first:  %s %s\n  second: %s %s",
				cfg.Label(), v.Kind, FormatSchedule(v.Schedule),
				second.Violation.Kind, FormatSchedule(second.Violation.Schedule))
		}
	}
}

// TestParallelDeterminism checks the acceptance requirement that explorer
// output is byte-identical across -parallel values: frontier waves fan out
// across workers, but the merge is sequential in declaration order.
func TestParallelDeterminism(t *testing.T) {
	base := Config{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1, TrackStates: true}
	var results []*Result
	for _, par := range []int{1, 3, 7} {
		cfg := base
		cfg.Parallel = par
		results = append(results, Run(cfg))
	}
	for _, r := range results[1:] {
		if r.Line() != results[0].Line() {
			t.Errorf("report differs across parallelism:\n  parallel=1: %s\n  parallel=%d: %s",
				results[0].Line(), r.Config.Parallel, r.Line())
		}
		if !reflect.DeepEqual(r.StateFps, results[0].StateFps) {
			t.Errorf("state fingerprint sequence differs at parallel=%d", r.Config.Parallel)
		}
	}
}

// TestSleepSetsLoseNothing cross-checks the sleep-set pruning. The state
// sets with and without it are not comparable (the stutter bound is
// path-dependent, so whichever path reaches a fingerprint first decides
// how much spin-loop tail gets cut), but the guarantee that matters is:
// pruning saves work on correct configurations and loses no violations on
// broken ones.
func TestSleepSetsLoseNothing(t *testing.T) {
	for _, base := range []Config{
		{Scheme: "Standard", Lock: "TTAS", Threads: 2, Ops: 1},
		{Scheme: "HLE", Lock: "AdjTicket", Threads: 2, Ops: 1},
	} {
		off := base
		off.NoSleepSets = true
		ron, roff := Run(base), Run(off)
		if ron.Violation != nil || roff.Violation != nil {
			t.Fatalf("%s: unexpected violation during cross-check", base.Label())
		}
		if ron.Replays > roff.Replays {
			t.Errorf("%s: sleep sets increased replays: %d > %d", base.Label(), ron.Replays, roff.Replays)
		}
		if ron.SleepPruned == 0 {
			t.Errorf("%s: sleep sets pruned nothing; cross-check is vacuous", base.Label())
		}
	}
	for _, cfg := range Mutants() {
		with := Run(cfg)
		off := cfg
		off.NoSleepSets = true
		without := Run(off)
		if with.Violation == nil || without.Violation == nil {
			t.Fatalf("%s: seeded fault not detected during cross-check", cfg.Label())
		}
		if with.Violation.Kind != without.Violation.Kind {
			t.Errorf("%s: sleep sets changed the detected violation: %q with, %q without",
				cfg.Label(), with.Violation.Kind, without.Violation.Kind)
		}
	}
}

// TestBoundsReported checks that truncation by the replay budget is
// surfaced in the result rather than silently absorbed.
func TestBoundsReported(t *testing.T) {
	r := Run(Config{Scheme: "Standard", Lock: "TTAS", Threads: 2, Ops: 2, MaxReplays: 500})
	t.Log(r.Line())
	if r.Truncated == 0 {
		t.Errorf("tiny replay budget produced no truncation count")
	}
	if r.Violation != nil {
		t.Errorf("truncation misreported as a violation: %s", r.Violation.Error())
	}
}
