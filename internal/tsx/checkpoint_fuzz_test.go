package tsx

import (
	"testing"

	"hle/internal/mem"
)

// fuzzProgram interprets fuzz bytes as a straight-line program of
// transactional and plain operations over a small set of lines, two bytes
// per step. Every opcode is total — no input can drive the machine into a
// usage panic — so the fuzzer explores abort, rollback, elision and
// fallback paths rather than API misuse.
func fuzzProgram(t *Thread, base mem.Addr, prog []byte) {
	const lines = 4
	addr := func(b byte) mem.Addr {
		return base + mem.Addr(b%lines)*mem.LineWords
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		switch op % 8 {
		case 0:
			t.Load(addr(arg))
		case 1:
			t.Store(addr(arg), uint64(arg))
		case 2:
			t.FetchAdd(addr(arg), uint64(arg%5))
		case 3:
			t.CAS(addr(arg), uint64(arg), uint64(op))
		case 4:
			// An elided critical section over one of the lines, with a
			// couple of accesses inside; spurious aborts (seeded from the
			// fuzz input) exercise the re-issue path, and a line that was
			// not 0 at the acquire fails the restore rule at the release.
			l := addr(arg)
			t.HLERegion(func() {
				t.XAcquireSwap(l, 1)
				t.Store(l+1, uint64(arg))
				t.Load(l + 2)
				t.XReleaseStore(l, 0)
			})
		case 5:
			// An RTM region with an explicit abort on some inputs.
			t.RTM(func() {
				t.Store(addr(arg), uint64(op))
				if arg%3 == 0 {
					t.Abort(arg)
				}
				t.Load(addr(arg + 1))
			})
		case 6:
			// A fetch-add-acquired elided region; the release restores
			// the observed pre-acquire value, so it commits when
			// speculation survives and stays total when it does not.
			l := addr(arg)
			t.HLERegion(func() {
				old := t.XAcquireFetchAdd(l, 1)
				t.Load(l + 1)
				t.XReleaseStore(l, old)
			})
		case 7:
			t.Load(addr(arg ^ op))
		}
	}
}

// FuzzCheckpointFork drives the checkpoint/fork contract with arbitrary
// operation mixes and injected (spurious-abort) faults: running a prefix,
// checkpointing, and forking a child that runs the suffix must leave the
// child's simulated memory bit-identical to a single machine that ran
// prefix and suffix back to back — and must leave the checkpointed parent
// untouched.
func FuzzCheckpointFork(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 0, 1, 1}, []byte{2, 3})
	f.Add(int64(7), uint8(40), []byte{4, 0, 4, 1, 5, 3}, []byte{4, 2, 6, 0})
	f.Add(int64(42), uint8(200), []byte{5, 0, 5, 3, 5, 6, 1, 9}, []byte{5, 1, 4, 4, 0, 7})
	f.Fuzz(func(t *testing.T, seed int64, spurious uint8, prefix, suffix []byte) {
		if len(prefix) > 256 || len(suffix) > 256 {
			t.Skip("program longer than the paths worth exploring")
		}
		cfg := DefaultConfig(1)
		cfg.Seed = seed
		cfg.SpuriousPerAccess = float64(spurious) / 1024
		build := func() (*Machine, mem.Addr) {
			m := NewMachine(cfg)
			var base mem.Addr
			m.RunOne(func(th *Thread) {
				// The four lines fuzzProgram touches: a checkpoint
				// holds only the words below the bump pointer.
				base = th.AllocLines(4 * mem.LineWords)
				th.Store(base, 1)
			})
			return m, base
		}

		// Forked life: prefix on the parent, checkpoint, suffix on a child.
		parent, base := build()
		parent.RunOne(func(th *Thread) { fuzzProgram(th, base, prefix) })
		cp := parent.Checkpoint()
		parentFp := templateFingerprint(parent)
		child := FromCheckpoint(cp)
		child.RunOne(func(th *Thread) { fuzzProgram(th, base, suffix) })

		// Single life: the same two runs on one machine, no checkpoint.
		scratch, base2 := build()
		if base != base2 {
			t.Fatalf("allocator nondeterminism: base %d vs %d", base, base2)
		}
		scratch.RunOne(func(th *Thread) { fuzzProgram(th, base, prefix) })
		scratch.RunOne(func(th *Thread) { fuzzProgram(th, base, suffix) })

		if got, want := templateFingerprint(child), templateFingerprint(scratch); got != want {
			t.Errorf("forked child diverged from scratch execution: %#x vs %#x", got, want)
		}
		if after := templateFingerprint(parent); after != parentFp {
			t.Errorf("running the child mutated the checkpointed parent: %#x vs %#x", after, parentFp)
		}

		// A second fork from the same checkpoint must repeat the first
		// bit for bit: checkpoints are immutable and multi-fork.
		again := FromCheckpoint(cp)
		again.RunOne(func(th *Thread) { fuzzProgram(th, base, suffix) })
		if got, want := templateFingerprint(again), templateFingerprint(child); got != want {
			t.Errorf("second fork of the same checkpoint diverged: %#x vs %#x", got, want)
		}
	})
}
