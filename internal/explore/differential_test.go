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
			if o.nEnabled > 1 {
				o.nEnabled--
				o.enabled[o.nEnabled] = 0
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
// child-selection rule the way it did. peak is the bank's byte estimate
// (entryBytes), so it also moves when a banked outcome's size does; the
// other three must not.
func TestForkCountersPinned(t *testing.T) {
	for _, c := range []struct {
		cfg                          Config
		forks, scratch, wasted, peak uint64
	}{
		{Config{Scheme: "HLE", Lock: "TTAS", Threads: 2, Ops: 1}, 1162, 1344, 1012, 34921},
		{Config{Scheme: "Standard", Lock: "TTAS", Threads: 3, Ops: 1}, 26761, 32614, 30037, 436235},
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
// same prefix — the same outcome, the same banked chain and the same
// scheme statistics — on every quick-battery configuration and every
// mutant, among them MutantSCMLazy's stateless scheme and
// MutantCLHBlindRelease's broken lock. Consecutive prefixes come from
// different schedules and depths, so each replay starts on a rig the
// previous one left stopped mid-run, often mid-transaction; each mutant's
// counterexample schedule is among its prefixes, so a rig also serves a
// replay right after one that found a violation.
//
// It is also the differential for finish-out: the same replay stopped at
// its last outcome (testStopAtEnd) must report the same outcome and the
// same banked chain as the one that finished its threads out.
func TestReusedRigMatchesFresh(t *testing.T) {
	for _, cfg := range append(Battery(true), Mutants()...) {
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
		var gotChain, stopChain chainBuf
		for _, p := range prefixes {
			got := e.replayNode(&node{prefix: p}, nil, 2, &gotChain)
			rig := e.rigs.free[len(e.rigs.free)-1]
			f := e.newReplayer(e.tmpl, p)
			f.chainLeft = 2
			f.chain = &chainBuf{}
			f.run()
			if !outcomesEqual(&got, &f.out) || !chainsEqual(gotChain.outs, f.chain.outs) {
				t.Errorf("%s: prefix %s: reused rig differs from a fresh fork", cfg.Label(), FormatSchedule(p))
				break
			}
			if a, b := rig.scheme.TotalStats(), f.scheme.TotalStats(); a != b {
				t.Errorf("%s: prefix %s: reused rig's scheme stats %+v, fresh fork's %+v", cfg.Label(), FormatSchedule(p), a, b)
				break
			}
			var stopped runOutcome
			withStopAtEnd(func() { stopped = e.replayNode(&node{prefix: p}, nil, 2, &stopChain) })
			if !outcomesEqual(&got, &stopped) || !chainsEqual(gotChain.outs, stopChain.outs) {
				t.Errorf("%s: prefix %s: finish-out changed what the replay reports", cfg.Label(), FormatSchedule(p))
				break
			}
		}
		if n := len(e.rigs.free); n != 1 {
			t.Errorf("%s: %d rigs after one-at-a-time replays, want 1", cfg.Label(), n)
		}
	}
}

// TestWarmRigAllocations pins that one replay of a fixed frontier prefix
// allocates nothing on a warmed rig: the machine, its scheduler and thread
// table, the locks, the scheme, the recorder, the closures and the scratch
// buffers are all reused, and the outcome (fingerprint, enabled procs and
// the final edge's line masks) is a plain value. The configurations cover
// every kind of rig-owned state: a queue lock with per-thread arrays, aux
// locks, a lazy predicate table, the mutant lock and the mutant scheme.
func TestWarmRigAllocations(t *testing.T) {
	for _, cfg := range []Config{
		{Scheme: "HLE-SCM", Lock: "MCS", Threads: 2, Ops: 1},
		{Scheme: "HLE-SCM-multi", Lock: "AdjTicket", Threads: 2, Ops: 1},
		{Scheme: "RTM-LE-lazy", Lock: "AdjCLH", Threads: 2, Ops: 1},
		{Scheme: "Opt-SLR", Lock: "TTAS", Threads: 2, Ops: 1},
		{Scheme: "Standard", Lock: "TTAS", Threads: 3, Ops: 1},
		Mutants()[0],
		Mutants()[1],
	} {
		c := cfg.withDefaults()
		e := newExplorer(&c)
		// The deepest frontier among the walks' prefixes, where every
		// thread has usually started.
		var nd *node
		prefixes := rigPrefixes(e)
		for k := len(prefixes) - 1; k >= 0; k-- {
			nd = &node{prefix: prefixes[k]}
			if out := e.replayNode(nd, nil, 0, nil); !out.terminal && !out.truncated {
				break
			}
		}
		if got := testing.AllocsPerRun(50, func() { e.replayNode(nd, nil, 0, nil) }); got != 0 {
			t.Errorf("%s: warm replay allocates %.0f objects, want 0", cfg.Label(), got)
		}
		// The same schedule played to its end, lowest enabled proc
		// first: the terminal checks (the history's verification and
		// the lock probe) allocate nothing either, unless they find a
		// violation.
		p := nd.prefix
		for {
			out := e.replayNode(&node{prefix: p}, nil, 0, nil)
			if out.violation != nil || out.truncated {
				p = nil
				break
			}
			if out.terminal {
				break
			}
			p = append(slices.Clip(p), out.enabled[0])
		}
		if p != nil {
			end := &node{prefix: p}
			if got := testing.AllocsPerRun(50, func() { e.replayNode(end, nil, 0, nil) }); got != 0 {
				t.Errorf("%s: warm terminal replay allocates %.0f objects, want 0", cfg.Label(), got)
			}
		}
	}
}

// chainsEqual reports whether two replays banked the same chain outcomes.
func chainsEqual(a, b []chainOut) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
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
			en := r.out.enabledProcs()
			p = append(slices.Clip(p), en[(d*w+d/5)%len(en)])
			if d%3 == 0 {
				out = append(out, p)
			}
		}
	}
	return out
}
