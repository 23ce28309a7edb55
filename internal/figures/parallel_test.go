package figures_test

import (
	"strings"
	"testing"

	"hle/internal/figures"
)

// renderFigure runs a figure and renders its tables to one string, the same
// way cmd/hle-bench prints them.
func renderFigure(t *testing.T, id string, o figures.Options) string {
	t.Helper()
	fig := figures.ByID(id)
	if fig == nil {
		t.Fatalf("unknown figure %q", id)
	}
	var sb strings.Builder
	for _, tb := range fig.Run(o) {
		tb.Fprint(&sb)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelismDoesNotChangeOutput is the determinism regression test for
// the host-parallel runner: with a fixed seed, rendered figure tables must
// be byte-identical whether points run on one worker or eight. Figure 3.1
// exercises the warm-template fork path (many groups × schemes); abl-spur
// exercises one template per machine config; ext-chaos exercises the chaos
// soak path, where every point carries its own injector, watchdog, and trace
// ring — the table doubles as the assertion that the injection hooks are
// zero-cost when no fault fires: any hook overhead or cross-point state
// leak would shift a soak's interleaving and change the counted columns
// between worker counts. ext-adapt exercises the adaptive scheme's
// controller, feed, and hot-swap drain bookkeeping (all per-machine state
// touched on the simulated hot path) plus its always-on profile
// collection — the switch counts in the table would expose any
// worker-count-dependent controller behavior. ext-shard exercises the
// sharded-store path: per-point scheme construction over a shared warm
// Data image (MkScheme after the checkpoint fork), harness op routing,
// and the heatmap table built from always-attached hot-point profiles.
// ext-place exercises the placement matrix: per-regime warm templates
// (including the serially-derived auto-pad template), always-on profiles
// feeding the attribution tables, and the two-phase STAMP grid whose
// packed runs seed the auto-pad plans. ext-lazy exercises the
// direct-drive subscription sweep: per-point machines, always-on
// attribution, and per-point correctness accounting.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	for _, id := range []string{"3.1", "abl-spur", "ext-chaos", "ext-adapt", "ext-shard", "ext-place", "ext-lazy"} {
		o := tinyOpts()
		o.Parallel = 1
		seq := renderFigure(t, id, o)
		o.Parallel = 8
		par := renderFigure(t, id, o)
		if seq != par {
			t.Errorf("figure %s output differs between -parallel 1 and -parallel 8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
				id, seq, par)
		}
	}
}
