package explore

import (
	"reflect"
	"slices"
	"testing"
)

// differentialConfigs samples the scheme/lock space for chain-vs-scratch
// equivalence checks: a plain lock, both adjusted protocols (whose
// invariant checks read extra lock words), an SCM scheme (aux lock in the
// template image), and a three-thread configuration.
func differentialConfigs() []Config {
	return []Config{
		{Scheme: "Standard", Lock: "TTAS", Threads: 2, Ops: 1},
		{Scheme: "HLE", Lock: "AdjTicket", Threads: 2, Ops: 1},
		{Scheme: "Opt-SLR-SCM", Lock: "AdjCLH", Threads: 2, Ops: 1},
		{Scheme: "HLE-SCM", Lock: "MCS", Threads: 2, Ops: 1},
		{Scheme: "Standard", Lock: "TTAS", Threads: 3, Ops: 1, MaxReplays: 20000},
	}
}

// TestChainMatchesScratch is the top-level differential: a chained, forking
// search must report exactly what an all-scratch search reports — same
// summary line, same distinct-state fingerprint sequence, same violation —
// at every chain depth. Only the fork/replay accounting may differ.
func TestChainMatchesScratch(t *testing.T) {
	for _, base := range differentialConfigs() {
		scratch := base
		scratch.TrackStates = true
		scratch.ChainDepth = -1
		want := Run(scratch)
		for _, depth := range []int{1, 2, 8} {
			cfg := base
			cfg.TrackStates = true
			cfg.ChainDepth = depth
			got := Run(cfg)
			if got.Line() != want.Line() {
				t.Errorf("%s: chain depth %d changed the report:\n  scratch: %s\n  chained: %s",
					base.Label(), depth, want.Line(), got.Line())
			}
			if !reflect.DeepEqual(got.StateFps, want.StateFps) {
				t.Errorf("%s: chain depth %d changed the state fingerprint sequence", base.Label(), depth)
			}
			if depth == 2 && got.Forks == 0 {
				t.Errorf("%s: no forks at chain depth %d; differential is vacuous", base.Label(), depth)
			}
		}
	}
}

// TestChainMatchesScratchOnMutants runs the differential over the seeded
// faults: forking must find the same violation kind and the same minimal
// counterexample schedule as scratch replay.
func TestChainMatchesScratchOnMutants(t *testing.T) {
	for _, cfg := range Mutants() {
		scratchCfg := cfg
		scratchCfg.ChainDepth = -1
		want := Run(scratchCfg)
		got := Run(cfg)
		if want.Violation == nil || got.Violation == nil {
			t.Fatalf("%s: seeded fault not detected (scratch %v, chained %v)",
				cfg.Label(), want.Violation != nil, got.Violation != nil)
		}
		if got.Violation.Kind != want.Violation.Kind ||
			!reflect.DeepEqual(got.Violation.Schedule, want.Violation.Schedule) {
			t.Errorf("%s: counterexample differs:\n  scratch: %s %s\n  chained: %s %s",
				cfg.Label(), want.Violation.Kind, FormatSchedule(want.Violation.Schedule),
				got.Violation.Kind, FormatSchedule(got.Violation.Schedule))
		}
	}
}

// TestValidateForksClean re-runs every fork from scratch in-line and
// compares the complete outcome — fingerprint, enabled set, sleep-relevant
// footprint edge, violation, terminal flags. A healthy bank must produce
// zero mismatches; this is the per-node differential behind the aggregate
// checks above.
func TestValidateForksClean(t *testing.T) {
	for _, base := range []Config{
		{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1},
		{Scheme: "Opt-SLR", Lock: "AdjCLH", Threads: 2, Ops: 1},
	} {
		cfg := base
		cfg.ValidateForks = true
		r := Run(cfg)
		if r.Forks == 0 {
			t.Fatalf("%s: validation ran but nothing forked", cfg.Label())
		}
		if r.ForkMismatches != 0 {
			t.Errorf("%s: %d of %d forks disagreed with scratch replay",
				cfg.Label(), r.ForkMismatches, r.Forks)
		}
		if r.Violation != nil {
			t.Errorf("%s: unexpected violation: %s", cfg.Label(), r.Violation.Error())
		}
	}
}

// TestStaleBankCaught is the mutation test for the validator: corrupt every
// banked outcome the way a stale checkpoint would (a field the resume path
// forgot to carry over), and require ValidateForks to notice. Without the
// corruption hook the same configuration must validate clean, proving the
// detector has no false positives.
func TestStaleBankCaught(t *testing.T) {
	cfg := Config{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1, ValidateForks: true}

	corruptions := []struct {
		name string
		mut  func(prefix []uint8, o *runOutcome)
	}{
		// A resume that skipped part of the machine image: the state
		// fingerprint no longer matches what scratch execution reaches.
		{"skipped-state-field", func(_ []uint8, o *runOutcome) {
			if !o.terminal && !o.truncated {
				o.fp ^= 1
			}
		}},
		// A resume that lost an enabled thread at the frontier.
		{"dropped-enabled-thread", func(_ []uint8, o *runOutcome) {
			if len(o.enabled) > 1 {
				o.enabled = o.enabled[:len(o.enabled)-1]
			}
		}},
		// A resume that dropped the final grant's footprint, which feeds
		// the sleep sets and stutter folding of every child node.
		{"lost-edge-footprint", func(_ []uint8, o *runOutcome) {
			o.lastEdge = edge{}
		}},
	}
	for _, c := range corruptions {
		testCorruptBank = c.mut
		r := Run(cfg)
		testCorruptBank = nil
		if r.Forks == 0 {
			t.Fatalf("%s: corrupted run produced no forks to validate", c.name)
		}
		if r.ForkMismatches == 0 {
			t.Errorf("%s: stale bank went undetected across %d forks", c.name, r.Forks)
		}
	}

	// Control: with the hook removed the detector must be quiet.
	clean := Run(cfg)
	if clean.ForkMismatches != 0 {
		t.Errorf("clean run reported %d fork mismatches", clean.ForkMismatches)
	}
}

// TestForkCountersPinned pins the chain predictor: the differential tests
// above compare verdicts and states, which any prediction preserves, so
// only these counters notice when chained replays bank different children.
// A change here means the predictor no longer follows the merge loop's
// child-selection rule the way it did.
func TestForkCountersPinned(t *testing.T) {
	for _, c := range []struct {
		cfg                          Config
		forks, scratch, wasted, peak uint64
	}{
		{Config{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1}, 1162, 1344, 1012, 36915},
		{Config{Scheme: "Standard", Lock: "TTAS", Threads: 3, Ops: 1}, 26761, 32614, 30037, 459124},
	} {
		r := Run(c.cfg)
		if r.Forks != c.forks || r.ScratchReplays != c.scratch || r.SpecWasted != c.wasted || r.CachePeakBytes != c.peak {
			t.Errorf("%s: forks=%d scratch=%d wasted=%d peak=%d, want %d %d %d %d", c.cfg.Label(),
				r.Forks, r.ScratchReplays, r.SpecWasted, r.CachePeakBytes, c.forks, c.scratch, c.wasted, c.peak)
		}
	}
}

// TestReusedRigMatchesFresh: a search rig reset in place replay after
// replay reports exactly what a freshly forked replayer reports for the
// same prefix — the same outcome and the same banked chain — on every
// quick-battery configuration and one mutant. Consecutive prefixes come
// from different schedules and depths, so each replay starts on a rig the
// previous one left stopped mid-run, often mid-transaction; the mutant's
// counterexample schedule is among its prefixes, so a rig also serves a
// replay right after one that found a violation.
func TestReusedRigMatchesFresh(t *testing.T) {
	mutant := Mutants()[2] // HLE-HWExt without suspend: elided transactions on unsound hardware
	for _, cfg := range append(Battery(true), mutant) {
		c := cfg.withDefaults()
		e := newExplorer(&c)
		prefixes := rigPrefixes(e)
		if cfg.Mutant != "" {
			v := Run(cfg).Violation
			if v == nil {
				t.Fatalf("%s: seeded fault not detected", cfg.Label())
			}
			prefixes = append(prefixes[:len(prefixes)/2:len(prefixes)/2],
				append([][]uint8{v.Schedule}, prefixes[len(prefixes)/2:]...)...)
		}
		for _, p := range prefixes {
			got, gotChain := e.replayNode(&node{prefix: p}, nil, 2)
			f := e.newReplayer(e.tmpl, p)
			f.chainLeft = 2
			f.run()
			if !outcomesEqual(&got, &f.out) || !reflect.DeepEqual(gotChain, f.chain) {
				t.Errorf("%s: prefix %s: reused rig differs from a fresh fork", cfg.Label(), FormatSchedule(p))
				break
			}
		}
		if n := len(e.rigs.free); n != 1 {
			t.Errorf("%s: %d rigs after one-at-a-time replays, want 1", cfg.Label(), n)
		}
	}
}

// rigPrefixes walks a few deterministic schedules from the root, each
// picking children by its own rule, and records every third frontier
// prefix along each.
func rigPrefixes(e *explorer) [][]uint8 {
	var out [][]uint8
	for w := 0; w < 4; w++ {
		var p []uint8
		for d := 0; d < 60; d++ {
			r := e.newReplayer(e.tmpl, p)
			r.run()
			if r.out.terminal || r.out.truncated || r.out.violation != nil {
				break
			}
			en := r.out.enabled
			p = append(slices.Clip(p), en[(d*w+d/5)%len(en)])
			if d%3 == 0 {
				out = append(out, p)
			}
		}
	}
	return out
}
