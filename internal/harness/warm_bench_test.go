package harness

import (
	"testing"

	"hle/internal/tsx"
)

// benchCfg is a machine sized like the large-tree figure groups, where
// population dominates point setup cost.
func benchCfg(elems int) tsx.Config {
	cfg := tsx.DefaultConfig(8)
	cfg.Seed = 1
	cfg.MemWords = elems*16 + 1<<16
	return cfg
}

// BenchmarkPointSetupCold measures what a template's first Fork pays, and
// a sweep without warm templates pays per point: build a machine, fill
// the workload from scratch, checkpoint it and fork the checkpoint.
func BenchmarkPointSetupCold(b *testing.B) {
	const elems = 32768
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wt := &WarmTemplate{
			Machine: benchCfg(elems),
			MkWorkload: func(t *tsx.Thread) Workload {
				return NewRBTree(t, elems, MixModerate)
			},
		}
		m, _ := wt.Fork()
		m.Release()
	}
}

// BenchmarkPointSetupClone is fork's comparison point: one populated live
// machine checkpointed and forked per point (two memory copies), each fork
// released as a point releases its machine.
func BenchmarkPointSetupClone(b *testing.B) {
	const elems = 32768
	tmpl := tsx.NewMachine(benchCfg(elems))
	tmpl.RunOne(func(t *tsx.Thread) {
		NewRBTree(t, elems, MixModerate).Populate(t)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsx.FromCheckpoint(tmpl.Checkpoint()).Release()
	}
}

// BenchmarkPointSetupFork measures the warm-template mode: the populated
// image is checkpointed once and every point copies the checkpoint into a
// recycled machine, which it releases when done.
func BenchmarkPointSetupFork(b *testing.B) {
	const elems = 32768
	wt := &WarmTemplate{
		Machine: benchCfg(elems),
		MkWorkload: func(t *tsx.Thread) Workload {
			return NewRBTree(t, elems, MixModerate)
		},
	}
	m, _ := wt.Fork() // pay the one-time populate outside the measured loop
	m.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := wt.Fork()
		m.Release()
	}
}
