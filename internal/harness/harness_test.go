package harness_test

import (
	"testing"

	"hle/internal/harness"
	"hle/internal/tsx"
)

func machineCfg(n int, seed int64) tsx.Config {
	cfg := tsx.DefaultConfig(n)
	cfg.Seed = seed
	cfg.MemWords = 1 << 18
	return cfg
}

func TestPointBasic(t *testing.T) {
	res := harness.Point(machineCfg(4, 1),
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
		return harness.Point(machineCfg(4, 7),
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
	res := harness.Point(machineCfg(4, 3),
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

// TestAllSchemeSpecsBuild builds every scheme table entry on every lock,
// each on the machine its entry asks for.
func TestAllSchemeSpecsBuild(t *testing.T) {
	for _, scheme := range harness.SchemeNames() {
		for _, lock := range []string{"TTAS", "MCS", "Ticket", "AdjTicket", "CLH", "AdjCLH"} {
			spec := harness.SchemeSpec{Scheme: scheme, Lock: lock}
			m := tsx.NewMachine(spec.Machine(machineCfg(1, 1)))
			m.RunOne(func(th *tsx.Thread) {
				if s := spec.Build(th); s == nil {
					t.Errorf("%v built nil", spec)
				}
			})
		}
	}
}

// TestBuildRejectsMissingHardware: a scheme that needs machine hardware
// refuses to build on a machine without it, instead of silently running
// as a different scheme under its label.
func TestBuildRejectsMissingHardware(t *testing.T) {
	for _, scheme := range []string{"HLE-HWExt", "HLE-SCM-ideal"} {
		spec := harness.SchemeSpec{Scheme: scheme, Lock: "TTAS"}
		m := tsx.NewMachine(machineCfg(1, 1))
		m.RunOne(func(th *tsx.Thread) {
			defer func() {
				if recover() == nil {
					t.Errorf("%v built on a machine without its hardware", spec)
				}
			}()
			spec.Build(th)
		})
	}
}

func TestHashTableWorkload(t *testing.T) {
	res := harness.Point(machineCfg(4, 5),
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
	std := harness.Point(machineCfg(8, 9), harness.SchemeSpec{Scheme: "Standard", Lock: "TTAS"}, mk, cfg)
	hle := harness.Point(machineCfg(8, 9), harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"}, mk, cfg)
	speedup := hle.Throughput / std.Throughput
	if speedup < 2 {
		t.Fatalf("HLE speedup over standard lock on read-only workload = %.2fx; expected clear scaling", speedup)
	}
}

// TestWarmupExcludesTransient: operations completing before the warmup
// boundary are excluded from stats, and throughput normalizes to the
// measured window.
func TestWarmupExcludesTransient(t *testing.T) {
	full := harness.Point(machineCfg(4, 13),
		harness.SchemeSpec{Scheme: "Standard", Lock: "TTAS"},
		func(th *tsx.Thread) harness.Workload {
			return harness.NewRBTree(th, 128, harness.MixModerate)
		},
		harness.Config{Threads: 4, CycleBudget: 200_000})
	warmed := harness.Point(machineCfg(4, 13),
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
