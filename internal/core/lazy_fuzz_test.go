package core_test

import (
	"reflect"
	"testing"

	"hle/internal/core"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/tsx"
)

// FuzzLazySubscription drives the subscription modes over arbitrary
// coordinates: the scheduler seed, the subscription mode (eager, fixed
// lazy, and the deliberately unsound naive lazy), FORTH-style asymmetric
// read/write-set capacity limits, and the critical section's footprint.
// Whatever the fuzzer draws, the run must be total (no usage panic, no
// livelock — every operation completes, by speculation or by falling back
// to the real lock), the SAFE modes must lose no update, and the whole
// machine must replay deterministically — the property the explore/chaos
// layers build on. The naive mode's counter is NOT constrained: it can
// lose updates (a commit drained over a pessimistic holder's stores) and
// it can duplicate them (the after-drain check aborts a commit whose
// writes already published, and the retry re-applies them — corpus entry
// 39d010aec5a2a4aa, found by this fuzzer, pins a duplicating run).
func FuzzLazySubscription(f *testing.F) {
	// Starter corpus: one entry per mode at the figure sweep's default
	// shape, plus capacity-starved and capacity-rich extremes where the
	// lock line's read-set residency (the eager/lazy difference) decides
	// whether speculation fits at all.
	f.Add(int64(1), uint8(0), uint8(8), uint8(4), uint8(3))
	f.Add(int64(2), uint8(1), uint8(8), uint8(4), uint8(3))
	f.Add(int64(3), uint8(2), uint8(8), uint8(4), uint8(3))
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint8(7))
	f.Add(int64(5), uint8(0), uint8(63), uint8(31), uint8(0))
	f.Add(int64(6), uint8(2), uint8(1), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, mode, rcap, wcap, footprint uint8) {
		const threads, ops = 3, 6
		scan := int(footprint % 8)      // shared lines read per CS
		burst := int(footprint / 8 % 4) // private lines written per CS
		readCap := 1 + int(rcap)%64     // precise read-set lines
		writeCap := 1 + int(wcap)%32    // write-set lines
		modeName := []string{"eager", "lazy-fixed", "lazy-naive"}[mode%3]

		run := func() (got uint64, st core.OpStats, aborted uint64) {
			cfg := tsx.DefaultConfig(threads)
			cfg.Seed = seed
			cfg.MemWords = 1 << 12
			cfg.L1ReadLines, cfg.ReadSetLines, cfg.WriteSetLines = readCap, readCap, writeCap
			m := tsx.NewMachine(cfg)
			var scheme core.Scheme
			var shared, counter mem.Addr
			var priv [threads]mem.Addr
			m.RunOne(func(th *tsx.Thread) {
				lock := locks.NewTTAS(th)
				shared = th.AllocLines(8 * mem.LineWords)
				for id := 0; id < threads; id++ {
					priv[id] = th.AllocLines(4 * mem.LineWords)
				}
				counter = th.AllocLines(1)
				switch modeName {
				case "eager":
					scheme = core.NewHLE(lock)
				case "lazy-fixed":
					scheme = core.NewHLELazy(lock)
				default:
					scheme = core.NewHLELazyNaive(lock)
				}
			})
			ths := m.Run(threads, func(th *tsx.Thread) {
				scheme.Setup(th)
				mine := priv[th.ID]
				for op := 0; op < ops; op++ {
					scheme.Run(th, func() {
						var sum uint64
						for l := 0; l < scan; l++ {
							sum += th.Load(shared + mem.Addr(l*mem.LineWords))
						}
						for l := 0; l < burst; l++ {
							th.Store(mine+mem.Addr(l*mem.LineWords), sum+uint64(op))
						}
						th.Store(counter, th.Load(counter)+1)
					})
				}
			})
			for _, th := range ths {
				for _, n := range th.Stats.Aborted {
					aborted += n
				}
			}
			m.RunOne(func(th *tsx.Thread) { got = th.Load(counter) })
			return got, scheme.TotalStats(), aborted
		}

		got, st, aborted := run()
		const expected = threads * ops
		if st.Ops != expected {
			t.Fatalf("%s r%d w%d: %d of %d operations completed — scheme lost liveness",
				modeName, readCap, writeCap, st.Ops, expected)
		}
		if modeName != "lazy-naive" && got != expected {
			t.Fatalf("%s r%d w%d scan=%d burst=%d: lost %d updates under a safe mode",
				modeName, readCap, writeCap, scan, burst, int64(expected)-int64(got))
		}
		got2, st2, aborted2 := run()
		if got2 != got || !reflect.DeepEqual(st2, st) || aborted2 != aborted {
			t.Fatalf("%s replay diverged: counter %d/%d, stats %+v/%+v, aborts %d/%d",
				modeName, got, got2, st, st2, aborted, aborted2)
		}
	})
}
