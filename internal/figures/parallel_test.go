package figures_test

import (
	"testing"

	"hle/internal/figures"
)

// TestParallelismDoesNotChangeOutput is the determinism regression test for
// the host-parallel runner and for passive profiling: with a fixed seed,
// every figure's rendered tables must be byte-identical between pass 1
// (profiled, one worker) and pass 2 (unprofiled, eight workers). Every
// point seeds from its declared coordinates and output is assembled in
// declaration order, so state leaking between points or host workers
// (hook overhead, a shared collector, adaptive-controller or store state,
// a chaos soak's injector or trace ring) or a collector that perturbs the
// run shows up as a mismatch.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	for _, f := range figures.All() {
		compareDigests(t, "figure "+f.ID+", "+pass2.name+" vs "+pass1.name,
			runPass(f, pass2).digest, runPass(f, pass1).digest, false)
	}
}
