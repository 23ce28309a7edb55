package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/stats"
)

// adaptStatics are the static schemes the adaptive controller's three
// levels correspond to: RTM-LE is the Elide rung, HLE-SCM the SCM rung,
// and Pes-SLR the Serial floor (one speculative probe, then the lock).
var adaptStatics = []string{"RTM-LE", "HLE-SCM", "Pes-SLR"}

// ExtAdapt sweeps the adaptive scheme against its static rungs across tree
// sizes — the contention axis of Figure 3.1, where the best static choice
// flips: small trees avalanche (SCM or the serial floor win) while large
// trees reward full elision, and MCS elision is avalanche-bound at every
// size. A controller that picks its level from the abort profile alone
// should track the best static scheme at both ends without knowing the
// workload; the table reports each point's throughput, the best static,
// the adaptive-to-best ratio, and the controller's transition count (from
// its decision log, which -profile also surfaces per point).
func ExtAdapt(o Options) []*stats.Table {
	o = o.withDefaults()
	sizes := []int{8, 64, 512, 4096, 32768}
	if o.Quick {
		sizes = []int{8, 512, 32768}
	}
	locks := []string{"TTAS", "MCS"}

	// One warm template per size, shared by both locks' points.
	templates := make([]*harness.WarmTemplate, len(sizes))
	for si, size := range sizes {
		size := size
		templates[si] = &harness.WarmTemplate{
			Machine: machineCfg(o, size),
			MkWorkload: func(t *tsxThread) harness.Workload {
				return harness.NewRBTree(t, size, harness.MixModerate)
			},
		}
	}

	schemes := append(append([]string{}, adaptStatics...), "Adaptive")
	type coord struct{ si, li, ki int }
	var points []harness.PointSpec
	var coords []coord
	for si := range sizes {
		for li, lock := range locks {
			for ki, scheme := range schemes {
				points = append(points, harness.PointSpec{
					Warm:   templates[si],
					Scheme: harness.SchemeSpec{Scheme: scheme, Lock: lock},
					Seed:   harness.DeriveSeed(o.Seed, si, li, ki),
					Runs:   o.Runs,
					Cfg:    harness.Config{Threads: o.Threads, CycleBudget: o.Budget, Warmup: o.Budget},
				})
				coords = append(coords, coord{si, li, ki})
			}
		}
	}
	// The transition count comes from the profile's controller log, so the
	// Adaptive points collect even when the figure run is not profiling.
	results := measureSpecs(o, points, func(pi int) string {
		c := coords[pi]
		return fmt.Sprintf("size%d/%s %s", sizes[c.si], schemes[c.ki], locks[c.li])
	}, func(pi int) bool { return schemes[coords[pi].ki] == "Adaptive" })

	byPoint := make(map[coord]harness.Result, len(results))
	for pi, r := range results {
		byPoint[coords[pi]] = r
	}

	tb := &stats.Table{
		Title: fmt.Sprintf("Extension — adaptive controller vs static rungs, ops/Mcycle across tree sizes, 10/10/80, %d threads",
			o.Threads),
		Header: []string{"tree size", "lock", "RTM-LE", "HLE-SCM", "Pes-SLR",
			"Adaptive", "best static", "adapt/best", "switches"},
	}
	for si, size := range sizes {
		for li, lock := range locks {
			best, bestName := 0.0, ""
			row := []string{stats.U(uint64(size)), lock}
			for ki, scheme := range schemes[:len(adaptStatics)] {
				tput := byPoint[coord{si, li, ki}].Throughput
				row = append(row, stats.F2(tput))
				if tput > best {
					best, bestName = tput, scheme
				}
			}
			ad := byPoint[coord{si, li, len(adaptStatics)}]
			row = append(row, stats.F2(ad.Throughput), bestName)
			ratio := 0.0
			if best > 0 {
				ratio = ad.Throughput / best
			}
			switches := 0
			if ad.Profile != nil {
				switches = len(ad.Profile.Controller)
			}
			row = append(row, stats.F2(ratio), stats.I(switches))
			tb.AddRow(row...)
		}
	}
	return []*stats.Table{tb}
}
