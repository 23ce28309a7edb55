package sim

import (
	"flag"
	"testing"
)

// printHashes makes the golden tests print the hashes they compute instead
// of asserting, for regenerating the constants below after an intentional
// schedule change:
//
//	go test ./internal/sim -run TestGoldenScheduleHash -sim.printhashes -v
var printHashes = flag.Bool("sim.printhashes", false, "print schedule hashes instead of asserting")

// hashSchedule runs the workload and returns an FNV-1a fingerprint of the
// complete schedule: every grant in issue order — (procID, target, stop) —
// followed by each proc's final clock and stopped flag. Any change to
// min-clock selection, tie-breaking, RNG consumption, grant-slice
// computation, or the stop cascade changes the hash.
func hashSchedule(cfg Config, n int, body func(p *Proc)) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	grantHook = func(procID int, target uint64, stop bool) {
		mix(uint64(procID))
		mix(target)
		if stop {
			mix(1)
		} else {
			mix(0)
		}
	}
	defer func() { grantHook = nil }()
	var procs []*Proc
	if hashRunner != nil {
		procs = hashRunner.Run(cfg, n, body)
	} else {
		procs = Run(cfg, n, body)
	}
	for _, p := range procs {
		mix(p.Clock())
		if p.Stopped() {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

// hashRunner, when non-nil, is the Runner hashSchedule runs on in place of
// a one-shot Run.
var hashRunner *Runner

// goldenSchedules are representative workloads whose schedule hashes were
// recorded against the pre-direct-handoff central scheduler. The direct
// handoff rewrite must reproduce every one byte-for-byte: same grant
// targets, same grant order, same RNG draws, same stop cascades.
var goldenSchedules = []struct {
	name string
	want uint64
	run  func() uint64
}{
	{
		// Plain contended run: equal-priority procs drawing step costs
		// from their per-proc RNG, exercising min-clock selection and
		// grant-slice randomization.
		name: "uniform-4procs",
		want: 0xceacf5a525b1df7d,
		run: func() uint64 {
			return hashSchedule(Config{Seed: 42, Quantum: 16}, 4, func(p *Proc) {
				for i := 0; i < 300; i++ {
					p.Step(uint64(p.Rand().Intn(5) + 1))
				}
			})
		},
	},
	{
		// Procs finishing at very different times: exercises removal from
		// the run queue (and therefore the tie-break order among the
		// survivors) plus the sole-runner endgame.
		name: "uneven-finish-6procs",
		want: 0x317fae7137f37085,
		run: func() uint64 {
			return hashSchedule(Config{Seed: 7}, 6, func(p *Proc) {
				for i := 0; i < 50*(p.ID+1); i++ {
					p.Step(uint64(p.ID%3 + 1))
				}
			})
		},
	},
	{
		// Many procs with clock ties: procs stepping identical costs tie
		// constantly, locking the tie-breaking order into the hash.
		name: "ties-8procs",
		want: 0x3421f200e59bddcf,
		run: func() uint64 {
			return hashSchedule(Config{Seed: 3, Quantum: 4}, 8, func(p *Proc) {
				for i := 0; i < 200; i++ {
					p.Step(2)
				}
			})
		},
	},
	{
		// Sole runner with an armed (never-tripping) watchdog: every grant
		// is finite and re-granted to the same proc — the self-grant fast
		// path of the scheduler.
		name: "sole-watchdog",
		want: 0xd822b105bce74f41,
		run: func() uint64 {
			return hashSchedule(Config{Seed: 11, Watchdog: func(uint64) bool { return false }}, 1, func(p *Proc) {
				for i := 0; i < 500; i++ {
					p.Step(3)
				}
			})
		},
	},
	{
		// Watchdog trip mid-run: locks the stop-cascade order (min-clock
		// procs are stopped first) and the stopped flags.
		name: "stop-cascade",
		want: 0x7431015c9bfaa9c7,
		run: func() uint64 {
			return hashSchedule(Config{Seed: 5, Watchdog: func(minClock uint64) bool {
				return minClock > 5_000
			}}, 4, func(p *Proc) {
				for {
					p.Step(uint64(p.Rand().Intn(3) + 1))
				}
			})
		},
	},
	{
		// Grant hook skewing slices (chaos-engine style): the hook runs
		// after the scheduler's own draw, so the RNG consumption pattern
		// is the plain one even though targets differ.
		name: "grant-skew",
		want: 0x48011415bdd35f77,
		run: func() uint64 {
			return hashSchedule(Config{Seed: 13, Quantum: 8, Grant: func(id int, clock, slice uint64) uint64 {
				if id == 0 {
					return 1
				}
				return slice * 3
			}}, 3, func(p *Proc) {
				for i := 0; i < 250; i++ {
					p.Step(uint64(1 + (i+p.ID)%4))
				}
			})
		},
	},
}

// TestGoldenScheduleHash asserts the schedule fingerprints recorded before
// the direct-handoff scheduler rewrite, pinning byte-identical scheduling
// in place. A mismatch means the scheduler changed observable behavior —
// which invalidates every recorded figure in EXPERIMENTS.md.
func TestGoldenScheduleHash(t *testing.T) {
	for _, g := range goldenSchedules {
		got := g.run()
		if *printHashes {
			t.Logf("%-22s 0x%016x", g.name, got)
			continue
		}
		if got != g.want {
			t.Errorf("%s: schedule hash = 0x%016x, want 0x%016x (schedule changed!)", g.name, got, g.want)
		}
	}
}

// TestRunnerReuseKeepsGoldenSchedules runs every golden workload on one
// shared Runner, forwards and then backwards, so each Run starts on
// scheduler state, procs and generators the previous workload left behind
// — more procs or fewer, stopped by a watchdog or finished — and must
// still reproduce its golden hash.
func TestRunnerReuseKeepsGoldenSchedules(t *testing.T) {
	hashRunner = new(Runner)
	defer func() { hashRunner = nil }()
	n := len(goldenSchedules)
	for k := 0; k < 2*n; k++ {
		g := goldenSchedules[k%n]
		if k >= n {
			g = goldenSchedules[2*n-1-k]
		}
		if got := g.run(); got != g.want {
			t.Errorf("%s on a reused Runner: schedule hash = 0x%016x, want 0x%016x", g.name, got, g.want)
		}
	}
}
