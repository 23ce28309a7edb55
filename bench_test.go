package hle_test

import (
	"testing"

	"hle/internal/figures"
	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/stamp"
	"hle/internal/tsx"
)

// The benchmarks below regenerate each of the paper's tables and figures at
// a reduced scale per iteration, reporting the figure's headline quantity
// as a custom metric. Run the full-scale versions with
//
//	go run ./cmd/hle-bench -fig <id>
//
// which prints the complete rows/series; see EXPERIMENTS.md for the
// paper-vs-measured record.

func quickOpts(b *testing.B) figures.Options {
	b.Helper()
	return figures.Options{Threads: 8, Quick: true, Seed: 1, Budget: 300_000}
}

// benchFigure runs a figure generator b.N times.
func benchFigure(b *testing.B, id string) {
	f := figures.ByID(id)
	if f == nil {
		b.Fatalf("unknown figure %s", id)
	}
	o := quickOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := f.Run(o)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("figure %s produced no rows", id)
		}
	}
}

func BenchmarkFig2_1_SetSizeLimits(b *testing.B)         { benchFigure(b, "2.1") }
func BenchmarkFig3_1_Avalanche(b *testing.B)             { benchFigure(b, "3.1") }
func BenchmarkFig3_3_SerializationDynamics(b *testing.B) { benchFigure(b, "3.3") }
func BenchmarkFig3_4_HLESpeedup(b *testing.B)            { benchFigure(b, "3.4") }
func BenchmarkFig3_5_HLEvsRTM(b *testing.B)              { benchFigure(b, "3.5") }
func BenchmarkFig5_1_SchemeScaling(b *testing.B)         { benchFigure(b, "5.1") }
func BenchmarkFig5_2_SchemeSweep(b *testing.B)           { benchFigure(b, "5.2") }
func BenchmarkFig5_3_AbortAnalysis(b *testing.B)         { benchFigure(b, "5.3") }
func BenchmarkTable5_2_HashTable(b *testing.B)           { benchFigure(b, "5.2ht") }
func BenchmarkCh6_FairLocks(b *testing.B)                { benchFigure(b, "ch6") }
func BenchmarkCh7_HWExtension(b *testing.B)              { benchFigure(b, "ch7") }
func BenchmarkAblationSCMRetries(b *testing.B)           { benchFigure(b, "abl-scm") }
func BenchmarkAblationSpurious(b *testing.B)             { benchFigure(b, "abl-spur") }
func BenchmarkAblationMultiAux(b *testing.B)             { benchFigure(b, "abl-multi") }
func BenchmarkAblationMissModel(b *testing.B)            { benchFigure(b, "abl-miss") }
func BenchmarkAblationBackoff(b *testing.B)              { benchFigure(b, "abl-backoff") }
func BenchmarkWorkloadProfiles(b *testing.B)             { benchFigure(b, "profiles") }
func BenchmarkExtScaling(b *testing.B)                   { benchFigure(b, "ext-scale") }
func BenchmarkExtCSLength(b *testing.B)                  { benchFigure(b, "ext-cslen") }
func BenchmarkExtSTAMP(b *testing.B)                     { benchFigure(b, "ext-stamp") }
func BenchmarkExtChaos(b *testing.B)                     { benchFigure(b, "ext-chaos") }
func BenchmarkExtLazy(b *testing.B)                      { benchFigure(b, "ext-lazy") }

// BenchmarkFig5_4_STAMP runs one STAMP application per scheme pair per
// iteration (the full 7×6×2 matrix lives behind `hle-bench -fig 5.4`),
// reporting the HLE-SCM speedup over plain HLE on the intruder benchmark.
func BenchmarkFig5_4_STAMP(b *testing.B) {
	app := stamp.Apps()[1] // intruder: the high-contention member
	cfg := tsx.DefaultConfig(8)
	cfg.MemWords = 1 << 18
	var speedup float64
	for i := 0; i < b.N; i++ {
		hleRes, err := stamp.Run(tsx.NewMachine(cfg), harness.SchemeSpec{Scheme: "HLE", Lock: "MCS"}, app.Make, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
		scmRes, err := stamp.Run(tsx.NewMachine(cfg), harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"}, app.Make, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(hleRes.Runtime) / float64(scmRes.Runtime)
	}
	b.ReportMetric(speedup, "scm-speedup")
}

// BenchmarkTxReadWrite measures the transactional load/store hot path: one
// thread reading and writing disjoint lines inside committed transactions.
// This is the path the line-index hoisting and write-buffer fast checks
// target.
func BenchmarkTxReadWrite(b *testing.B) {
	cfg := tsx.DefaultConfig(1)
	cfg.Seed = 1
	m := tsx.NewMachine(cfg)
	var cells []mem.Addr
	m.RunOne(func(t *tsx.Thread) {
		for i := 0; i < 16; i++ {
			cells = append(cells, t.AllocLines(1))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunOne(func(t *tsx.Thread) {
			for j := 0; j < 100; j++ {
				t.RTM(func() {
					for _, c := range cells {
						t.Store(c, t.Load(c)+1)
					}
				})
			}
		})
	}
	b.ReportMetric(float64(b.N*100*16*2)/b.Elapsed().Seconds(), "sim-accesses/s")
}

// BenchmarkAllocFree measures the simulated allocator: alloc/free cycles
// across several size classes, exercising the size-class free lists and the
// thread-local cache.
func BenchmarkAllocFree(b *testing.B) {
	cfg := tsx.DefaultConfig(1)
	cfg.Seed = 1
	m := tsx.NewMachine(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunOne(func(t *tsx.Thread) {
			var addrs [64]mem.Addr
			for j := 0; j < 100; j++ {
				for k := range addrs {
					addrs[k] = t.Alloc(1 + k%7)
				}
				for k := range addrs {
					t.Free(addrs[k], 1+k%7)
				}
			}
		})
	}
	b.ReportMetric(float64(b.N*100*64)/b.Elapsed().Seconds(), "alloc-free/s")
}

// BenchmarkHarnessPoint measures one full experiment point through the pool
// path: fork a warm template, reseed, and run a short measurement.
func BenchmarkHarnessPoint(b *testing.B) {
	cfg := tsx.DefaultConfig(4)
	cfg.Seed = 1
	spec := harness.PointSpec{
		Warm: &harness.WarmTemplate{
			Machine: cfg,
			MkWorkload: func(t *tsx.Thread) harness.Workload {
				return harness.NewRBTree(t, 128, harness.MixModerate)
			},
		},
		Scheme: harness.SchemeSpec{Scheme: "HLE", Lock: "MCS"},
		Cfg:    harness.Config{Threads: 4, CycleBudget: 100_000},
	}
	spec.Warm.Fork() // pay the one-time populate outside the measured loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = harness.DeriveSeed(1, i)
		if r := spec.Run(); r.Ops.Ops == 0 {
			b.Fatal("point completed no operations")
		}
	}
}

// BenchmarkEngineThroughput measures the simulator's raw speed: simulated
// transactional accesses per second on this host.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := tsx.DefaultConfig(8)
	cfg.Seed = 1
	m := tsx.NewMachine(cfg)
	var cells []mem.Addr
	m.RunOne(func(t *tsx.Thread) {
		for i := 0; i < 8; i++ {
			cells = append(cells, t.AllocLines(1))
		}
	})
	b.ResetTimer()
	accesses := 0
	for i := 0; i < b.N; i++ {
		m.Run(8, func(t *tsx.Thread) {
			cell := cells[t.ID]
			for j := 0; j < 1000; j++ {
				t.RTM(func() {
					v := t.Load(cell)
					t.Store(cell, v+1)
				})
			}
		})
		accesses += 8 * 1000 * 2
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "sim-accesses/s")
}
