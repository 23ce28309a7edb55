package main

import "hle/internal/tsx"

// metric names one reported number and its unit. BENCHMARK.json lists the
// same metrics and adds each one's direction and, end to end, its
// regression bound.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics an untraced run reports: what a user
// regenerating results pays in host time and memory.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"grants_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Counts come from the
// layers' public result structs and repeat exactly for a seed; cpu.* and
// span times come from the traced passes; ladder.* from the cost ladder.
var perLayer = func() []metric {
	ms := []metric{
		{"sim.grants", "count"},
		{"sim.mcycles", "Mcycles"},
		{"tsx.begun", "count"},
		{"tsx.committed", "count"},
		{"tsx.committed_accesses", "count"},
	}
	var st tsx.Stats
	for c := 1; c < len(st.Aborted); c++ {
		ms = append(ms, metric{"tsx.aborts." + tsx.Cause(c).String(), "count"})
	}
	ms = append(ms,
		metric{"core.ops", "count"},
		metric{"core.attempts", "count"},
		metric{"core.useful_ratio", "ratio"},
		metric{"core.nonspec_frac", "ratio"},
		metric{"harness.points", "count"},
		metric{"adapt.transitions", "count"},
		metric{"explore.states", "count"},
		metric{"explore.replays", "count"},
		metric{"explore.forks", "count"},
		metric{"explore.scratch_replays", "count"},
		metric{"explore.fork_rate", "ratio"},
		metric{"explore.spec_wasted", "count"},
		metric{"explore.bank_useful_ratio", "ratio"},
		metric{"explore.cache_peak_mb", "MB"},
		metric{"go.alloc_mb", "MB"},
		metric{"go.mallocs", "count"},
		metric{"go.gc_cycles", "count"},
		metric{"go.gc_pause_ms", "ms"},
		metric{"harness.populate_s", "s"},
		metric{"harness.point_s.p50", "s"},
		metric{"harness.point_s.max", "s"},
		metric{"explore.config_s.p50", "s"},
		metric{"explore.config_s.max", "s"},
	)
	for _, b := range cpuBuckets {
		ms = append(ms, metric{"cpu." + b, "s"})
	}
	for _, name := range ladderNames() {
		unit := "ns"
		switch name {
		case "ladder.sim.run_us":
			unit = "us"
		case "ladder.tsx.fork_us_per_mb":
			unit = "us/MB"
		case "ladder.obs.overhead":
			unit = "ratio"
		}
		ms = append(ms, metric{name, unit})
	}
	return ms
}()
