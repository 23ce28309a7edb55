package explore

import "testing"

// BenchmarkReplayNode is the explore-replay rung of the cost ladder: one
// scratch replay of a fixed mid-schedule prefix of HLE-SCM over MCS (a
// queue lock with per-thread arrays plus an aux lock) on a warmed rig —
// machine reset, lock copies, scheme reset, the strategy-driven run to
// the frontier and its fingerprint. A warm replay allocates nothing
// (TestWarmRigAllocations pins it).
func BenchmarkReplayNode(b *testing.B) {
	cfg := Config{Scheme: "HLE-SCM", Lock: "MCS", Threads: 2, Ops: 1}
	c := cfg.withDefaults()
	e := newExplorer(&c)
	prefixes := rigPrefixes(e)
	nd := &node{prefix: prefixes[len(prefixes)/2]}
	e.replayNode(nd, nil, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.replayNode(nd, nil, 0, nil)
	}
}

// BenchmarkExploreSearch is the search rung of the cost ladder: a full
// chained search of one quick-battery configuration on one host worker —
// replays, forks from the bank, the merge's child selection and the wave
// bookkeeping. Its allocations are per search (the template, the rigs,
// the waves' and the bank's storage as they grow, one key per banked
// outcome), not per node.
func BenchmarkExploreSearch(b *testing.B) {
	cfg := Config{Scheme: "HLE-SCM", Lock: "MCS", Threads: 2, Ops: 1, MaxReplays: 20000, Parallel: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}
