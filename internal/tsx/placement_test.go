package tsx

import (
	"testing"

	"hle/internal/mem"
)

// placementWorkload makes every thread allocate, publish, mutate, and free
// blocks through the transactional allocator — the path where placement
// decides which objects share lines. The lock serializes list surgery so
// the program itself is deterministic under the machine's token schedule.
func placementWorkload(list, lock mem.Addr, rounds int) func(*Thread) {
	return func(t *Thread) {
		for r := 0; r < rounds; r++ {
			a := t.Alloc(r%5 + 1)
			t.HLERegion(func() {
				t.XAcquireSwap(lock, 1)
				t.Store(a, uint64(t.ID)<<8|uint64(r))
				prev := t.Load(list)
				t.Store(list, uint64(a))
				if prev != 0 && r%3 == 0 {
					t.Free(mem.Addr(prev), (r-1+3)%5+1)
				}
				t.XReleaseStore(lock, 0)
			})
		}
	}
}

// TestPlacementForkEqualsContinuation re-proves the checkpoint-fork
// invariant under every placement policy: prefix + checkpoint + forked
// suffix must be bit-identical to one machine running prefix and suffix
// back to back, and the checkpoint must carry the layout so the fork keeps
// allocating under the same policy.
func TestPlacementForkEqualsContinuation(t *testing.T) {
	for _, p := range mem.Placements() {
		cfg := DefaultConfig(3)
		cfg.Seed = 11
		cfg.Layout = mem.Layout{Placement: p, ChunkLines: 8}

		build := func() (*Machine, mem.Addr, mem.Addr) {
			m := NewMachine(cfg)
			var list, lock mem.Addr
			m.RunOne(func(th *Thread) {
				list = th.AllocLines(1)
				lock = th.AllocLines(1)
			})
			return m, list, lock
		}

		parent, list, lock := build()
		parent.Run(3, placementWorkload(list, lock, 6))
		cp := parent.Checkpoint()
		if got := FromCheckpoint(cp).Mem.Layout().Placement; got != p {
			t.Fatalf("checkpoint dropped placement: got %v, want %v", got, p)
		}
		parentFp := templateFingerprint(parent)
		child := FromCheckpoint(cp)
		child.Run(3, placementWorkload(list, lock, 5))

		scratch, list2, lock2 := build()
		if list != list2 || lock != lock2 {
			t.Fatalf("%v: allocator nondeterminism in build", p)
		}
		scratch.Run(3, placementWorkload(list, lock, 6))
		scratch.Run(3, placementWorkload(list, lock, 5))

		if got, want := templateFingerprint(child), templateFingerprint(scratch); got != want {
			t.Errorf("%v: forked child diverged from straight-line run: %#x vs %#x", p, got, want)
		}
		if after := templateFingerprint(parent); after != parentFp {
			t.Errorf("%v: running the child mutated the parent: %#x vs %#x", p, after, parentFp)
		}
	}
}

// TestPlacementPoliciesDiverge sanity-checks that the axis is live: padded
// placement must put the threads' fresh blocks on different lines than
// packed does.
func TestPlacementPoliciesDiverge(t *testing.T) {
	alloc := func(l mem.Layout) []mem.Addr {
		cfg := DefaultConfig(1)
		cfg.Layout = l
		m := NewMachine(cfg)
		var got []mem.Addr
		m.RunOne(func(th *Thread) {
			for i := 0; i < 4; i++ {
				got = append(got, th.Alloc(2))
			}
		})
		return got
	}
	packed := alloc(mem.Layout{})
	padded := alloc(mem.Layout{Placement: mem.Padded})
	same := true
	for i := range packed {
		if packed[i] != padded[i] {
			same = false
		}
	}
	if same {
		t.Fatal("padded placement produced the packed layout")
	}
}
