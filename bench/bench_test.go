package main

import (
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// workload and metric registries in step: the same names and units, in
// order. BENCHMARK.json alone says why, in which direction and by how much.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bm, err := loadBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, registry %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the registry %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		if m.metric != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, registry %+v", i, m.metric, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end %s: better is %q", m.Name, m.Better)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the registry %d", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		if m.metric != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, registry %+v", i, m.metric, perLayer[i])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better is %q", m.Name, m.Better)
		}
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not a valid benchmark name", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		check(m.Name)
	}
}

// TestBucketOf charges synthetic stacks (innermost frame first).
func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1",
			"hle/internal/sim.(*Proc).recvGrant", "hle/internal/sim.(*Proc).yieldToken",
			"hle/internal/sim.(*Proc).Step", "hle/internal/tsx.(*Thread).Step"}, "runtime_switch"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.mallocgc",
			"hle/internal/explore.(*specCache).put"}, "runtime_gc"},
		{[]string{"runtime.memmove", "hle/internal/mem.FromSnapshot", "hle/internal/tsx.FromCheckpoint",
			"hle/internal/harness.(*WarmTemplate).Fork"}, "mem"},
		{[]string{"hle/internal/rbtree.(*Tree).Contains", "hle/internal/harness.(*RBTree).Exec"}, "workload"},
		{[]string{"hle/internal/tsx.(*Thread).Load", "hle/internal/rbtree.(*Tree).Contains"}, "tsx"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime_switch"},
		{[]string{"hle/internal/stats.NewTimeline"}, "other"},
		{[]string{"runtime.memclrNoHeapPointers", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestParseTraces reads the text layout of `go tool pprof -traces`.
func TestParseTraces(t *testing.T) {
	text := `File: hle-benchmark
Type: cpu
Duration: 1s, Total samples = 60ms (6.00%)
-----------+-------------------------------------------------------
      20ms   runtime.chanrecv
             hle/internal/sim.(*Proc).yieldToken
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             hle/internal/mem.(*Memory).Snapshot (inline)
             hle/internal/tsx.(*Machine).Checkpoint
-----------+-------------------------------------------------------
      10ms   hle/internal/obs.(*Collector).TxBegin
-----------+-------------------------------------------------------
`
	got, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime_switch": 0.02, "mem": 0.03, "obs": 0.01}
	var sum float64
	for _, b := range cpuBuckets {
		sum += got[b]
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("bucket %s = %v, want %v", b, got[b], want[b])
		}
	}
	if math.Abs(sum-0.06) > 1e-9 {
		t.Errorf("buckets sum to %v, want 0.06", sum)
	}
}

// TestLadderShort runs every rung at the shrunken sizes; traced benchmark
// runs use the full ones.
func TestLadderShort(t *testing.T) {
	got := runLadder(true)
	for _, name := range ladderNames() {
		v, ok := got[name]
		if !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("rung %s = %v (present %v), want a positive finite value", name, v, ok)
		}
	}
}

// miniUnits is a three-point miniature of the machine workloads: a
// contended small tree under a spin lock and a queue lock, and a profiled
// sharded store under the adaptive scheme.
func miniUnits(seed int64) []unit {
	const cycles = 20_000
	tree := &harness.WarmTemplate{Machine: machineConfig(seed, 64), MkWorkload: rbtreeMaker(64, harness.MixExtensive)}
	spec := traffic.Spec{Keys: 64, Mix: harness.MixModerate, ZipfS: 1.2, Seed: seed}
	store := &harness.WarmTemplate{Machine: machineConfig(seed, 256), MkWorkload: func(t *tsx.Thread) harness.Workload {
		return traffic.New(t, shard.DataConfig{Shards: 2, Backend: shard.RBTree}, spec)
	}}
	_, w := store.Fork()
	data := w.(*traffic.Workload).Data()
	profiled := runConfig(cycles)
	profiled.Profile = &obs.Options{}
	return []unit{
		{label: "HLE/TTAS", point: &harness.PointSpec{Warm: tree, Scheme: harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
			Seed: harness.DeriveSeed(seed, 0), Cfg: runConfig(cycles)}},
		{label: "HLE-SCM/MCS", point: &harness.PointSpec{Warm: tree, Scheme: harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"},
			Seed: harness.DeriveSeed(seed, 1), Cfg: runConfig(cycles)}},
		{label: "store/Adaptive", point: &harness.PointSpec{Warm: store, Seed: harness.DeriveSeed(seed, 2), Cfg: profiled,
			MkScheme: func(t *tsx.Thread) core.Scheme {
				maker := shard.SchemeMakerByName("Adaptive")
				return traffic.Route(shard.Bind(t, data, shard.StoreConfig{MkScheme: maker}))
			}}},
	}
}

// TestMiniatureDeterminism: the digests depend neither on the host worker
// count nor on tracing.
func TestMiniatureDeterminism(t *testing.T) {
	digests := func(workers int, tr *tracer) []string {
		units := miniUnits(7)
		points, _ := runUnits(units, workers, tr, 0)
		var out []string
		for i := range points {
			if p := pointProblem(&points[i]); p != "" {
				t.Fatalf("%s: %s", units[i].label, p)
			}
			out = append(out, pointDigest(&points[i]))
		}
		return out
	}
	ref := digests(1, nil)
	tr := newTracer(time.Now())
	for name, got := range map[string][]string{
		"2 workers":        digests(2, nil),
		"2 workers traced": digests(2, tr),
	} {
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: unit %d digest %s, 1 worker untraced %s", name, i, got[i], ref[i])
			}
		}
	}
	if n := len(tr.spans); n != 3 {
		t.Errorf("traced run recorded %d spans, want one per point (3)", n)
	}
}

func TestCheckUnits(t *testing.T) {
	pass := func(digests ...string) *passResult {
		p := &passResult{}
		for i, d := range digests {
			p.Units = append(p.Units, unitResult{Label: string(rune('a' + i)), Digest: d})
		}
		return p
	}
	_, failed, problems := checkUnits([]*passResult{pass("1", "2"), pass("1", "2")}, map[string]string{"a": "1", "b": "2"})
	if failed != 0 || len(problems) != 0 {
		t.Errorf("clean passes: failed %d, problems %v", failed, problems)
	}
	attempted, failed, _ := checkUnits([]*passResult{pass("1", "2"), pass("1", "3")}, nil)
	if attempted != 4 || failed != 1 {
		t.Errorf("second pass diverges: attempted %d failed %d, want 4 and 1", attempted, failed)
	}
	_, failed, _ = checkUnits([]*passResult{pass("1", "2")}, map[string]string{"a": "1", "b": "9"})
	if failed != 1 {
		t.Errorf("pinned mismatch: failed %d, want 1", failed)
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4)
// and statistics.quantiles([1, 2], n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	side := func(v ...float64) stats { return summarize(v) }
	cases := []struct {
		a, b stats
		want string
	}{
		{side(10, 10.1, 9.9, 10, 10), side(10, 10.1, 9.9, 10.05, 10), "unchanged"},
		{side(10, 10.1, 9.9, 10, 10), side(12, 12.1, 11.9, 12, 12), "regressed"},
		{side(10, 10.1, 9.9, 10, 10), side(8, 8.1, 7.9, 8, 8), "improved"},
		{side(10, 14, 6, 12, 8), side(10, 10.1, 9.9, 10, 10), "unresolved"},
	}
	for _, c := range cases {
		cmp := comparison{Better: "lower", Bound: 0.1, A: c.a, B: c.b}
		cmp.judge()
		if cmp.Verdict != c.want {
			t.Errorf("A %v B %v: verdict %s, want %s", c.a.Values, c.b.Values, cmp.Verdict, c.want)
		}
	}
}
