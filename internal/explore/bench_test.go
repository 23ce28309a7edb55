package explore

import "testing"

// BenchmarkReplayNode is the explore-replay rung of the cost ladder: one
// scratch replay of a fixed mid-schedule prefix of HLE-SCM over MCS (a
// queue lock with per-thread arrays plus an aux lock) on a warmed rig —
// machine reset, lock copies, scheme reset, the strategy-driven run to
// the frontier and its fingerprint. Allocations per op are the per-Run
// threads and the outcome's slices (TestWarmRigAllocations pins them).
func BenchmarkReplayNode(b *testing.B) {
	cfg := Config{Scheme: "HLE-SCM", Lock: "MCS", Threads: 2, Ops: 1}
	c := cfg.withDefaults()
	e := newExplorer(&c)
	prefixes := rigPrefixes(e)
	nd := &node{prefix: prefixes[len(prefixes)/2]}
	e.replayNode(nd, nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.replayNode(nd, nil, 0)
	}
}
