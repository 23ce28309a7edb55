package tsx_test

import (
	"flag"
	"testing"

	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// printFingerprints makes TestGoldenMachineFingerprint print the values it
// computes instead of asserting, for regenerating the constants after an
// intentional engine-behavior change:
//
//	go test ./internal/tsx -run TestGoldenMachineFingerprint -tsx.printfingerprints -v
var printFingerprints = flag.Bool("tsx.printfingerprints", false, "print machine fingerprints instead of asserting")

// fpHash accumulates an FNV-1a fingerprint.
type fpHash uint64

func newFpHash() fpHash { return 14695981039346656037 }

func (h *fpHash) mix(v uint64) {
	const prime64 = 1099511628211
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= prime64
		v >>= 8
	}
	*h = fpHash(x)
}

// mixThreads folds every observable per-thread outcome into the hash:
// final virtual clocks (a fingerprint of the schedule), transaction
// counts by outcome and cause, and committed footprints.
func (h *fpHash) mixThreads(threads []*tsx.Thread) {
	for _, t := range threads {
		h.mix(t.Clock())
		h.mix(t.Stats.Begun)
		h.mix(t.Stats.Committed)
		for _, a := range t.Stats.Aborted {
			h.mix(a)
		}
		h.mix(t.Stats.CommittedReadLines)
		h.mix(t.Stats.CommittedWriteLines)
		h.mix(t.Stats.CommittedAccesses)
	}
}

// goldenMachines are engine-level workloads whose complete observable
// outcome — schedules, abort mixes, committed footprints, final memory —
// was recorded before the direct-handoff scheduler and open-addressing
// write buffer rewrites. They must stay byte-identical: these fingerprints
// back the claim that every figure in EXPERIMENTS.md is unchanged.
var goldenMachines = []struct {
	name string
	want uint64
	run  func(t *testing.T) uint64
}{
	{
		// The paper's bread-and-butter workload: 8 threads eliding a TTAS
		// lock around a contended critical section, with conflict aborts,
		// HLE re-issues, and per-begin spurious-abort draws.
		name: "hle-ttas-counters",
		want: 0x04c2e2b231ec2834,
		run: func(tt *testing.T) uint64 {
			cfg := tsx.DefaultConfig(8)
			cfg.Seed = 42
			m := tsx.NewMachine(cfg)
			var lk locks.Lock
			var counters mem.Addr
			m.RunOne(func(t *tsx.Thread) {
				lk = locks.NewTTAS(t)
				counters = t.AllocLines(4)
			})
			threads := m.Run(8, func(t *tsx.Thread) {
				lk.Prepare(t)
				for i := 0; i < 100; i++ {
					t.HLERegion(func() {
						lk.SpecAcquire(t)
						slot := counters + mem.Addr(t.Rand().Intn(4))
						v := t.Load(slot)
						t.Work(15)
						t.Store(slot, v+1)
						lk.SpecRelease(t)
					})
				}
			})
			h := newFpHash()
			h.mixThreads(threads)
			var sum uint64
			m.RunOne(func(t *tsx.Thread) {
				for i := 0; i < 4; i++ {
					v := t.Load(counters + mem.Addr(i))
					sum += v
					h.mix(v)
				}
			})
			if sum != 800 {
				tt.Errorf("hle-ttas-counters: lost updates: sum = %d, want 800", sum)
			}
			return uint64(h)
		},
	},
	{
		// Raw RTM with a retry loop over one hot line: requestor-wins
		// conflict dooming, abort costs, and the write buffer under
		// repeated reset/reuse.
		name: "rtm-hot-line",
		want: 0xa6a31e361fc8782f,
		run: func(tt *testing.T) uint64 {
			cfg := tsx.DefaultConfig(8)
			cfg.Seed = 7
			m := tsx.NewMachine(cfg)
			var shared mem.Addr
			m.RunOne(func(t *tsx.Thread) {
				shared = t.AllocLines(8)
			})
			threads := m.Run(8, func(t *tsx.Thread) {
				for i := 0; i < 60; i++ {
					for {
						committed, _ := t.RTM(func() {
							a := shared + mem.Addr(t.Rand().Intn(8))
							v := t.Load(a)
							t.Work(10)
							t.Store(a, v+1)
						})
						if committed {
							break
						}
						t.Work(50)
					}
				}
			})
			h := newFpHash()
			h.mixThreads(threads)
			var sum uint64
			m.RunOne(func(t *tsx.Thread) {
				for i := 0; i < 8; i++ {
					v := t.Load(shared + mem.Addr(i))
					sum += v
					h.mix(v)
				}
			})
			if sum != 480 {
				tt.Errorf("rtm-hot-line: lost updates: sum = %d, want 480", sum)
			}
			return uint64(h)
		},
	},
	{
		// The Chapter 7 hardware extension: elided MCS critical sections
		// that suspend on misses while the lock is held, exercising the
		// hwext wait loop's clock advance.
		name: "hwext-mcs",
		want: 0x366aa1122f049e91,
		run: func(tt *testing.T) uint64 {
			cfg := tsx.DefaultConfig(4)
			cfg.Seed = 11
			m := tsx.NewMachine(cfg)
			var lk locks.Lock
			var counters mem.Addr
			m.RunOne(func(t *tsx.Thread) {
				lk = locks.NewMCS(t)
				counters = t.AllocLines(2)
			})
			threads := m.Run(4, func(t *tsx.Thread) {
				t.SetSubscription(tsx.SubHWExt)
				lk.Prepare(t)
				for i := 0; i < 80; i++ {
					t.HLERegion(func() {
						lk.SpecAcquire(t)
						slot := counters + mem.Addr(i&1)
						v := t.Load(slot)
						t.Work(8)
						t.Store(slot, v+1)
						lk.SpecRelease(t)
					})
				}
			})
			h := newFpHash()
			h.mixThreads(threads)
			var sum uint64
			m.RunOne(func(t *tsx.Thread) {
				for i := 0; i < 2; i++ {
					v := t.Load(counters + mem.Addr(i))
					sum += v
					h.mix(v)
				}
			})
			if sum != 320 {
				tt.Errorf("hwext-mcs: lost updates: sum = %d, want 320", sum)
			}
			return uint64(h)
		},
	},
}

// TestGoldenMachineFingerprint asserts engine-level outcome fingerprints
// recorded before the scheduler and write-buffer rewrites. Together with
// internal/sim's TestGoldenScheduleHash this pins "byte-identical figures"
// from both ends: the scheduler's grant sequence and the engine's
// observable results.
func TestGoldenMachineFingerprint(t *testing.T) {
	for _, g := range goldenMachines {
		got := g.run(t)
		if *printFingerprints {
			t.Logf("%-20s 0x%016x", g.name, got)
			continue
		}
		if got != g.want {
			t.Errorf("%s: machine fingerprint = 0x%016x, want 0x%016x (engine behavior changed!)", g.name, got, g.want)
		}
	}
}
