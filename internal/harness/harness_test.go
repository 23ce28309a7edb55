package harness_test

import (
	"fmt"
	"strings"
	"testing"

	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/tsx"
)

func machineCfg(n int, seed int64) tsx.Config {
	cfg := tsx.DefaultConfig(n)
	cfg.Seed = seed
	cfg.MemWords = 1 << 18
	return cfg
}

// runPoint runs one point on a fresh warm template: the machine built
// from mcfg, the workload populated, then the scheme built and measured.
func runPoint(mcfg tsx.Config, spec harness.SchemeSpec, mk func(*tsx.Thread) harness.Workload, cfg harness.Config) harness.Result {
	return harness.PointSpec{
		Warm:   &harness.WarmTemplate{Machine: mcfg, MkWorkload: mk},
		Scheme: spec,
		Cfg:    cfg,
	}.Run()
}

func TestPointBasic(t *testing.T) {
	res := runPoint(machineCfg(4, 1),
		harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 128, harness.MixModerate)
		},
		harness.Config{Threads: 4, CycleBudget: 200_000})
	if res.Ops.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.MaxClock < 200_000 {
		t.Fatalf("run stopped early at %d", res.MaxClock)
	}
	if res.Ops.Spec+res.Ops.NonSpec != res.Ops.Ops {
		t.Fatal("spec/nonspec accounting inconsistent")
	}
}

func TestDeterministicResults(t *testing.T) {
	point := func() harness.Result {
		return runPoint(machineCfg(4, 7),
			harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"},
			func(th *tsx.Thread) harness.Workload {
				return harness.NewRBTree(th, 64, harness.MixExtensive)
			},
			harness.Config{Threads: 4, CycleBudget: 150_000})
	}
	a, b := point(), point()
	if a.Ops != b.Ops || a.MaxClock != b.MaxClock {
		t.Fatalf("nondeterministic results: %+v vs %+v", a.Ops, b.Ops)
	}
}

func TestTimelineCollection(t *testing.T) {
	res := runPoint(machineCfg(4, 3),
		harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 64, harness.MixModerate)
		},
		harness.Config{Threads: 4, CycleBudget: 300_000, SliceCycles: 30_000})
	if res.Timeline == nil || len(res.Timeline.Slots) < 8 {
		t.Fatalf("timeline not collected: %+v", res.Timeline)
	}
	var total uint64
	for _, s := range res.Timeline.Slots {
		total += s.Ops
	}
	if total != res.Ops.Ops {
		t.Fatalf("timeline ops %d != total ops %d", total, res.Ops.Ops)
	}
	if len(res.Timeline.NormalizedOps()) != len(res.Timeline.Slots) {
		t.Fatal("normalized series length mismatch")
	}
}

// TestAllSchemeSpecsBuild builds every scheme table entry on every lock.
func TestAllSchemeSpecsBuild(t *testing.T) {
	for _, scheme := range harness.SchemeNames() {
		for _, lock := range []string{"TTAS", "MCS", "Ticket", "AdjTicket", "CLH", "AdjCLH"} {
			spec := harness.SchemeSpec{Scheme: scheme, Lock: lock}
			m := tsx.NewMachine(machineCfg(1, 1))
			m.RunOne(func(th *tsx.Thread) {
				if s := spec.Build(th); s == nil {
					t.Errorf("%v built nil", spec)
				}
			})
		}
	}
}

// TestRunRejectsProfile: profiling is per point, so Run refuses a Config
// with a Profile rather than silently running unprofiled.
func TestRunRejectsProfile(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "PointSpec") {
			t.Fatalf("Run with a Profile: panic %v, want one pointing at PointSpec", r)
		}
	}()
	harness.Run(tsx.NewMachine(machineCfg(1, 1)), nil, nil,
		harness.Config{Threads: 1, CycleBudget: 1, Profile: &obs.Options{}})
}

func TestHashTableWorkload(t *testing.T) {
	res := runPoint(machineCfg(4, 5),
		harness.SchemeSpec{Scheme: "Opt-SLR", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload {
			return harness.NewHashTable(th, 256, harness.MixModerate)
		},
		harness.Config{Threads: 4, CycleBudget: 150_000})
	if res.Ops.Ops == 0 {
		t.Fatal("no hash-table ops completed")
	}
}

// TestHLEBeatsStandardOnReadOnly: the headline sanity check — elision must
// outscale a standard lock on a lookup-only workload.
func TestHLEBeatsStandardOnReadOnly(t *testing.T) {
	mk := func(th *tsx.Thread) harness.Workload {
		return harness.NewRBTree(th, 4096, harness.MixLookupOnly)
	}
	cfg := harness.Config{Threads: 8, CycleBudget: 400_000}
	std := runPoint(machineCfg(8, 9), harness.SchemeSpec{Scheme: "Standard", Lock: "TTAS"}, mk, cfg)
	hle := runPoint(machineCfg(8, 9), harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"}, mk, cfg)
	speedup := hle.Throughput / std.Throughput
	if speedup < 2 {
		t.Fatalf("HLE speedup over standard lock on read-only workload = %.2fx; expected clear scaling", speedup)
	}
}

// TestWarmupExcludesTransient: operations completing before the warmup
// boundary are excluded from stats, and throughput normalizes to the
// measured window.
func TestWarmupExcludesTransient(t *testing.T) {
	full := runPoint(machineCfg(4, 13),
		harness.SchemeSpec{Scheme: "Standard", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 128, harness.MixModerate)
		},
		harness.Config{Threads: 4, CycleBudget: 200_000})
	warmed := runPoint(machineCfg(4, 13),
		harness.SchemeSpec{Scheme: "Standard", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 128, harness.MixModerate)
		},
		harness.Config{Threads: 4, CycleBudget: 200_000, Warmup: 200_000})
	if warmed.Ops.Ops >= full.Ops.Ops*3/2 {
		t.Fatalf("warmed window recorded %d ops vs %d for the full run; warmup not excluded",
			warmed.Ops.Ops, full.Ops.Ops)
	}
	if warmed.MaxClock < 400_000 {
		t.Fatalf("warmed run stopped at %d, want >= warmup+budget", warmed.MaxClock)
	}
	// Throughputs of a steady workload agree across the two windows.
	ratio := warmed.Throughput / full.Throughput
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("steady throughput differs across windows: %.1f vs %.1f", warmed.Throughput, full.Throughput)
	}
}
