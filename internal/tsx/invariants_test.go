package tsx

import (
	"testing"

	"hle/internal/mem"
)

// checkNoLeakedBits asserts that every cache line's transactional metadata
// is clear — the global invariant that commit/abort cleanup must maintain.
func checkNoLeakedBits(t *testing.T, m *Machine) {
	t.Helper()
	for l := 0; l < m.Mem.NumLines(); l++ {
		lm := m.Mem.LineByIndex(l)
		if lm.Readers != 0 || lm.Writers != 0 {
			t.Fatalf("line %d leaked metadata: readers=%b writers=%b", l, lm.Readers, lm.Writers)
		}
	}
}

// TestNoLeakedLineBitsAfterChaos runs a high-conflict mixed workload —
// transactions, elisions, explicit aborts, allocation churn — and then
// verifies every line's read/write masks are clear.
func TestNoLeakedLineBitsAfterChaos(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 31
	cfg.SpuriousPerAccess = 1e-3 // plenty of mid-flight aborts
	m := NewMachine(cfg)
	var shared [4]mem.Addr
	var lock mem.Addr
	m.RunOne(func(th *Thread) {
		for i := range shared {
			shared[i] = th.AllocLines(1)
		}
		lock = th.AllocLines(1)
	})
	m.Run(8, func(th *Thread) {
		for i := 0; i < 200; i++ {
			switch th.Rand().Intn(4) {
			case 0: // RTM with conflicts and churn
				th.RTM(func() {
					c := shared[th.Rand().Intn(4)]
					th.Store(c, th.Load(c)+1)
					tmp := th.Alloc(3)
					th.Store(tmp, 1)
					th.Free(tmp, 3)
					if th.Rand().Intn(5) == 0 {
						th.Abort(7)
					}
				})
			case 1: // HLE region over the shared lock
				th.HLERegion(func() {
					if th.XAcquireSwap(lock, 1) == 0 {
						c := shared[th.Rand().Intn(4)]
						th.Store(c, th.Load(c)+1)
						th.XReleaseStore(lock, 0)
						return
					}
					th.Pause()
				})
			case 2: // plain conflicting access
				th.Store(shared[th.Rand().Intn(4)], uint64(i))
			default: // allocation churn outside transactions
				a := th.Alloc(5)
				th.Store(a, uint64(i))
				th.Free(a, 5)
			}
		}
	})
	checkNoLeakedBits(t, m)
}

// TestNoLeakedBitsAfterCapacityAborts: capacity-triggered rollbacks clear
// every touched line, including the hundreds of read lines.
func TestNoLeakedBitsAfterCapacityAborts(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Seed = 7
	cfg.SpuriousPerAccess = 0
	cfg.L1ReadLines = 16
	cfg.ReadSetLines = 64
	cfg.WriteSetLines = 16
	cfg.MemWords = 1 << 14
	m := NewMachine(cfg)
	m.Run(2, func(th *Thread) {
		arr := th.AllocLines(128 * mem.LineWords)
		for i := 0; i < 20; i++ {
			th.RTM(func() {
				for l := 0; l < 128; l++ {
					_ = th.Load(arr + mem.Addr(l*mem.LineWords))
				}
			})
			th.RTM(func() {
				for l := 0; l < 32; l++ {
					th.Store(arr+mem.Addr(l*mem.LineWords), 1)
				}
			})
		}
	})
	checkNoLeakedBits(t, m)
}

// TestHWExtNoLeakedBits: the Chapter 7 suspension path also cleans up.
func TestHWExtNoLeakedBits(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 13
	cfg.SpuriousPerAccess = 0
	m := NewMachine(cfg)
	var lock mem.Addr
	var cells [4]mem.Addr
	m.RunOne(func(th *Thread) {
		lock = th.AllocLines(1)
		for i := range cells {
			cells[i] = th.AllocLines(1)
		}
	})
	m.Run(4, func(th *Thread) {
		th.SetSubscription(SubHWExt)
		for i := 0; i < 100; i++ {
			if th.ID == 0 && i%5 == 0 {
				// Non-speculative lock holder.
				for th.Swap(lock, 1) == 1 {
					th.Pause()
				}
				th.Store(cells[0], uint64(i))
				th.Work(50)
				th.Store(lock, 0)
				continue
			}
			th.HLERegion(func() {
				if th.XAcquireSwap(lock, 1) != 0 {
					th.Pause()
					return
				}
				c := cells[1+th.Rand().Intn(3)]
				th.Store(c, th.Load(c)+1)
				th.XReleaseStore(lock, 0)
			})
		}
	})
	checkNoLeakedBits(t, m)
}
