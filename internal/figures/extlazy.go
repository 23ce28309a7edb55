package figures

import (
	"fmt"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/hwext"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// lazyModes are the subscription modes the sweep compares, each with the
// harness scheme that runs it. Eager is real Haswell HLE (the lock line
// joins the read set at XACQUIRE). Lazy-naive defers the subscription and
// applies neither of the Dice et al. fixes — it is unsafe, and the "lost"
// column is allowed to show it. Lazy-fixed is the full pipeline:
// commit-time lock check ordered before the write-set drain, plus the
// commit-window abort.
var lazyModes = []struct{ name, scheme string }{
	{"eager", "HLE"}, {"lazy-naive", "HLE-lazy-naive"}, {"lazy-fixed", "HLE-lazy"},
}

// lazyWorkload is the FORTH-style footprint of each critical section:
// a large shared read scan, a small private write burst, and one shared
// counter increment (the conflict hotspot and the lost-update probe).
// With eager subscription the lock line joins the read set on top of
// this; lazy keeps it out, so the two modes sit one line apart on the
// read-capacity axis — exactly the asymmetric read/write-set tradeoff
// the FORTH proposals target.
const (
	lazyReadLines  = 20
	lazyWriteLines = 5
)

// LazyPoint is one measured point of the subscription sweep.
type LazyPoint struct {
	Mode       string
	ReadCap    int
	WriteCap   int
	Throughput float64
	SpecFrac   float64
	Aborts     uint64
	LockLine   uint64
	Subscr     uint64
	CapRead    uint64
	CapWrite   uint64
	Lost       int64
}

// LazyBench is the structured result of one subscription sweep, for
// callers that assert on the numbers rather than parse the rendered table.
type LazyBench struct {
	Points []LazyPoint
}

// ExtLazy sweeps eager vs naive-lazy vs fixed-lazy subscription across a
// grid of asymmetric read/write-set capacity limits, with full abort
// attribution per point. The interesting cells: at a read cap of
// lazyReadLines+2 every mode fits; one line tighter the eager mode's
// lock-line subscription no longer fits and it serializes while lazy
// still speculates; a write cap below the write footprint serializes
// everyone (the lock word is elided, not written, so lazy buys nothing
// on the write axis).
func ExtLazy(o Options) []*stats.Table {
	_, tables := LazySweep(o)
	return tables
}

// LazySweep runs the subscription sweep and returns both the structured
// record and the rendered tables.
func LazySweep(o Options) (*LazyBench, []*stats.Table) {
	o = o.withDefaults()
	readCaps := []int{lazyReadLines + 1, lazyReadLines + 4, 32}
	writeCaps := []int{4, lazyWriteLines + 1, 8}
	ops := 300
	if o.Quick {
		readCaps = []int{lazyReadLines + 1, 32}
		writeCaps = []int{4, 8}
		ops = 100
	}

	type point struct {
		throughput float64
		spec       float64
		aborts     uint64
		lockLine   uint64
		subscr     uint64
		capRead    uint64
		capWrite   uint64
		lost       int64
	}
	type coord struct{ mi, ri, wi int }
	var coords []coord
	for mi := range lazyModes {
		for ri := range readCaps {
			for wi := range writeCaps {
				coords = append(coords, coord{mi, ri, wi})
			}
		}
	}
	// Every point profiles: the attribution columns read the profile.
	points, _ := measure(o, len(coords), func(i int) string {
		c := coords[i]
		return fmt.Sprintf("%s/r%d/w%d", lazyModes[c.mi].name, readCaps[c.ri], writeCaps[c.wi])
	}, everyPoint, func(i int, popts *obs.Options) (point, *obs.Profile) {
		c := coords[i]
		mode := lazyModes[c.mi].name
		spec := harness.SchemeSpec{Scheme: lazyModes[c.mi].scheme}
		cfg := tsx.DefaultConfig(o.Threads)
		cfg.Seed = harness.DeriveSeed(o.Seed, c.mi, c.ri, c.wi)
		cfg.MemWords = 1 << 16
		cfg = hwext.LimitSets(cfg, readCaps[c.ri], writeCaps[c.wi])
		cfg = spec.Machine(cfg)
		var profile func() *obs.Profile
		cfg.Observer, profile = observe(popts, fmt.Sprintf("%s r%d w%d", mode, readCaps[c.ri], writeCaps[c.wi]))
		m := tsx.NewMachine(cfg)

		var scheme core.Scheme
		var shared, counter mem.Addr
		var priv [8 * 16]mem.Addr
		m.RunOne(func(th *tsx.Thread) {
			lock := locks.NewTTAS(th)
			shared = th.AllocLines(lazyReadLines * mem.LineWords)
			for id := 0; id < o.Threads; id++ {
				priv[id] = th.AllocLines(lazyWriteLines * mem.LineWords)
			}
			counter = th.AllocLines(1)
			scheme = spec.Assemble(lock, nil)
		})
		threads := m.Run(o.Threads, func(th *tsx.Thread) {
			scheme.Setup(th)
			mine := priv[th.ID]
			for op := 0; op < ops; op++ {
				scheme.Run(th, func() {
					var sum uint64
					for l := 0; l < lazyReadLines; l++ {
						sum += th.Load(shared + mem.Addr(l*mem.LineWords))
					}
					for l := 0; l < lazyWriteLines; l++ {
						th.Store(mine+mem.Addr(l*mem.LineWords), sum+uint64(op))
					}
					th.Store(counter, th.Load(counter)+1)
				})
			}
		})

		var engineAborts uint64
		var maxClock uint64
		for _, th := range threads {
			for _, n := range th.Stats.Aborted {
				engineAborts += n
			}
			if th.Clock() > maxClock {
				maxClock = th.Clock()
			}
		}
		var got uint64
		m.RunOne(func(th *tsx.Thread) { got = th.Load(counter) })
		expected := uint64(o.Threads * ops)
		lost := int64(expected) - int64(got)
		if lost != 0 && mode != "lazy-naive" {
			panic(fmt.Sprintf("figures: ext-lazy %s r%d w%d: %d lost updates under a safe mode",
				mode, readCaps[c.ri], writeCaps[c.wi], lost))
		}

		prof := profile()
		prof.EngineAborts = engineAborts

		st := scheme.TotalStats()
		return point{
			throughput: float64(expected) / (float64(maxClock) / 1e6),
			spec:       float64(st.Spec) / float64(st.Ops),
			aborts:     prof.TotalAborts,
			lockLine:   prof.Cause(obs.ClassConflictLockLine),
			subscr:     prof.Cause(obs.ClassSubscription),
			capRead:    prof.Cause(obs.ClassCapacityRead),
			capWrite:   prof.Cause(obs.ClassCapacityWrite),
			lost:       lost,
		}, prof
	})

	bench := &LazyBench{}
	tb := &stats.Table{
		Title: fmt.Sprintf("Extension — lock subscription mode × read/write-set capacity (TTAS, %d threads, CS reads %d lines / writes %d)",
			o.Threads, lazyReadLines, lazyWriteLines),
		Header: []string{"mode", "rcap", "wcap", "ops/Mc", "spec frac",
			"aborts", "lock-line", "subscription", "cap-read", "cap-write", "lost"},
	}
	for i, c := range coords {
		p := points[i]
		bench.Points = append(bench.Points, LazyPoint{
			Mode: lazyModes[c.mi].name, ReadCap: readCaps[c.ri], WriteCap: writeCaps[c.wi],
			Throughput: p.throughput, SpecFrac: p.spec,
			Aborts: p.aborts, LockLine: p.lockLine, Subscr: p.subscr,
			CapRead: p.capRead, CapWrite: p.capWrite, Lost: p.lost,
		})
		tb.AddRow(lazyModes[c.mi].name,
			stats.I(readCaps[c.ri]), stats.I(writeCaps[c.wi]),
			stats.F2(p.throughput), stats.F3(p.spec),
			stats.I(int(p.aborts)), stats.I(int(p.lockLine)), stats.I(int(p.subscr)),
			stats.I(int(p.capRead)), stats.I(int(p.capWrite)),
			stats.I(int(p.lost)))
	}
	return bench, []*stats.Table{tb}
}
