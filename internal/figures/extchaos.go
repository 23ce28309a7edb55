package figures

import (
	"fmt"

	"hle/internal/chaos"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/stats"
)

// ExtChaos is the chaos soak as a figure: every scheme × {TTAS, MCS} is
// driven through a serializability-checked tree workload under randomized
// fault schedules (spurious-abort storms, capacity squeezes, preemptions,
// grant skew, holder stalls) with liveness watchdogs armed. The paper's
// Chapter 4 argues SCM is livelock- and starvation-free by construction;
// this table shows every scheme with a non-speculative fallback surviving
// adversarial schedules — all points serializable, zero watchdog trips —
// while counting the faults actually absorbed. NoLock is excluded: it is a
// single-threaded baseline with no locks to attack.
func ExtChaos(o Options) []*stats.Table {
	o = o.withDefaults()
	schedules := 40
	spec := chaos.SoakSpec{}
	if o.Quick {
		schedules = 20
		// Smaller soaks keep the quick figure to a few seconds: fewer
		// threads and ops, with the fault horizon shrunk to match the
		// shorter run so schedules still land inside it.
		spec.Threads = 4
		spec.OpsPerThread = 30
		spec.Horizon = 60_000
	}
	schemes := []string{
		"Standard", "HLE", "HLE-HWExt", "RTM-LE", "HLE-SCM",
		"HLE-SCM-ideal", "HLE-SCM-multi", "Pes-SLR", "Opt-SLR", "Opt-SLR-SCM",
	}
	locks := []string{"TTAS", "MCS"}

	type point struct{ si, li, rep int }
	var pts []point
	for si := range schemes {
		for li := range locks {
			for rep := 0; rep < schedules; rep++ {
				pts = append(pts, point{si, li, rep})
			}
		}
	}
	results, _ := measure(o, len(pts), func(i int) string {
		p := pts[i]
		return fmt.Sprintf("%s/%s/rep%d", schemes[p.si], locks[p.li], p.rep)
	}, nil, func(i int, prof *obs.Options) (chaos.SoakResult, *obs.Profile) {
		p := pts[i]
		s := spec
		s.Scheme = harness.SchemeSpec{Scheme: schemes[p.si], Lock: locks[p.li]}
		s.Seed = harness.DeriveSeed(o.Seed, p.si, p.li, p.rep)
		s.Profile = prof
		r := chaos.RunSoak(s)
		return r, r.Profile
	})

	tb := &stats.Table{
		Title: fmt.Sprintf("Extension — chaos soak: %d randomized fault schedules per point, serializability-checked, watchdogs armed", schedules),
		Header: []string{"scheme", "lock", "schedules", "serializable", "trips",
			"inj aborts", "inj stalls", "squeezes", "skews"},
	}
	for si, sch := range schemes {
		for li, lk := range locks {
			var ok, trips int
			var n chaos.Counters
			for i, p := range pts {
				if p.si != si || p.li != li {
					continue
				}
				r := results[i]
				switch {
				case r.Failure != nil:
					trips++
				case r.CheckErr == nil:
					ok++
				}
				c := r.Injected
				n.Aborts += c.Aborts
				n.Stalls += c.Stalls
				n.Squeezes += c.Squeezes
				n.Skews += c.Skews
			}
			tb.AddRow(sch, lk, stats.I(schedules), stats.I(ok), stats.I(trips),
				stats.I(n.Aborts), stats.I(n.Stalls), stats.I(n.Squeezes), stats.I(n.Skews))
		}
	}
	return []*stats.Table{tb}
}
