package figures_test

import (
	"testing"

	"hle/internal/figures"
)

// TestAbortAttributionAcrossFigures asserts the attribution invariant on
// every profile that pass 1 collected: each abort is classified under
// exactly one cause, so the per-cause counts sum to the observed abort
// total, which in turn matches the engine's own counters (every profile is
// stamped). Every figure must deliver at least one profile.
func TestAbortAttributionAcrossFigures(t *testing.T) {
	for _, f := range figures.All() {
		t.Run(f.ID, func(t *testing.T) {
			r := runPass(f, pass1)
			for _, v := range r.attribution {
				t.Error(v)
			}
			if r.profiles == 0 {
				t.Fatalf("figure %s delivered no profiles", f.ID)
			}
		})
	}
}

// TestProfileOutputParallelDeterminism: with a fixed seed, the full
// profile stream of a figure — delivery order, names, and JSON bytes —
// and its tables must be identical whether points run on one host worker
// or eight (pass 3 against pass 1, streamFigures).
func TestProfileOutputParallelDeterminism(t *testing.T) {
	for _, id := range streamFigures {
		f := figures.ByID(id)
		if f == nil {
			t.Fatalf("unknown figure %q", id)
		}
		ref := runPass(*f, pass1)
		if ref.profiles == 0 {
			t.Fatalf("figure %s collected no profile output", id)
		}
		compareDigests(t, "figure "+id+", "+pass3.name+" vs "+pass1.name,
			runPass(*f, pass3).digest, ref.digest, true)
	}
}
