package tsx

import (
	"testing"

	"hle/internal/mem"
	"hle/internal/sim"
)

// benchMachine builds a 1-thread machine with the noise sources disabled,
// so benchmarks measure engine mechanics rather than RNG draws.
func benchMachine() *Machine {
	cfg := DefaultConfig(1)
	cfg.CostJitter = -1
	cfg.SpuriousPerAccess = 0
	cfg.MaxTxAccesses = 1 << 40
	return NewMachine(cfg)
}

// BenchmarkTxLoadStore measures the transactional access hot path: a
// store+load pair to a small working set inside one long transaction —
// write-buffer insert, buffered-load hit, read/write-set membership checks.
func BenchmarkTxLoadStore(b *testing.B) {
	m := benchMachine()
	m.RunOne(func(t *Thread) {
		base := t.Alloc(256)
		b.ResetTimer()
		committed, st := t.RTM(func() {
			for i := 0; i < b.N; i++ {
				a := base + mem.Addr((i*7)&255)
				t.Store(a, uint64(i))
				if got := t.Load(a); got != uint64(i) {
					panic("bad buffered load")
				}
			}
		})
		if !committed {
			b.Fatalf("benchmark transaction aborted: %+v", st)
		}
	})
}

// BenchmarkTxLoadOnly measures the read-only transactional path: loads that
// miss the write buffer and hit the read set.
func BenchmarkTxLoadOnly(b *testing.B) {
	m := benchMachine()
	m.RunOne(func(t *Thread) {
		base := t.Alloc(256)
		b.ResetTimer()
		committed, st := t.RTM(func() {
			for i := 0; i < b.N; i++ {
				_ = t.Load(base + mem.Addr((i*7)&255))
			}
		})
		if !committed {
			b.Fatalf("benchmark transaction aborted: %+v", st)
		}
	})
}

// BenchmarkWriteBuf measures the write buffer in isolation: per iteration,
// one transaction-lifetime's worth of traffic at the observed common-case
// size — 24 distinct words written, each read back twice, then the buffer
// is reset for the next "transaction".
func BenchmarkWriteBuf(b *testing.B) {
	tx := newTxState()
	addrs := make([]mem.Addr, 24)
	for i := range addrs {
		// One word per line, like contended lock/node words.
		addrs[i] = mem.Addr((i + 1) * mem.LineWords)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, a := range addrs {
			tx.bufWrite(a, uint64(j))
		}
		for r := 0; r < 2; r++ {
			for j, a := range addrs {
				v, ok := tx.bufGet(a)
				if !ok || v != uint64(j) {
					b.Fatal("write buffer lookup failed")
				}
			}
		}
		tx.reset()
	}
}

// BenchmarkSpinGrant measures what a grant costs the host when one proc
// spins on a held lock word while another works: ns/grant over both procs'
// grants. In "served" the spinner's grants are served in place (Spin parks
// it) on the worker's goroutine, and the worker's own grants keep it
// running, so no grant switches; in "switched" a
// do-nothing injector keeps every spin on its coroutine, so every grant
// switches, as every grant did before waits could park. served/grant is
// the share of grants served in place, switches/grant the coroutine
// switches per grant.
func BenchmarkSpinGrant(b *testing.B) {
	for _, mode := range []string{"served", "switched"} {
		b.Run(mode, func(b *testing.B) {
			m := NewMachine(DefaultConfig(2))
			var word mem.Addr
			m.RunOne(func(t *Thread) {
				word = t.AllocLines(1)
				t.Store(word, 1)
			})
			if mode == "switched" {
				m.SetInjector(&testInjector{})
			}
			grants, served, switches := sim.Grants(), sim.ServedGrants(), sim.Switches()
			b.ResetTimer()
			m.Run(2, func(t *Thread) {
				if t.ID == 1 {
					t.SpinWhile(word, 1)
					return
				}
				for i := 0; i < b.N; i++ {
					t.Work(1)
				}
				t.Store(word, 0)
			})
			b.StopTimer()
			grants = sim.Grants() - grants
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(grants), "ns/grant")
			b.ReportMetric(float64(sim.ServedGrants()-served)/float64(grants), "served/grant")
			b.ReportMetric(float64(sim.Switches()-switches)/float64(grants), "switches/grant")
		})
	}
}
