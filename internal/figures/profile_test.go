package figures_test

import (
	"bytes"
	"fmt"
	"testing"

	"hle/internal/figures"
	"hle/internal/obs"
)

// TestAbortAttributionAcrossFigures runs every figure generator with
// profiling on and asserts the attribution invariant on every collected
// profile: each abort is classified under exactly one cause, so the
// per-cause counts sum to the observed abort total, which in turn matches
// the engine's own counters wherever the harness stamped them.
func TestAbortAttributionAcrossFigures(t *testing.T) {
	for _, f := range figures.All() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			o := tinyOpts()
			o.Profile = &obs.Options{}
			profiles := 0
			o.ProfileSink = func(name string, p *obs.Profile) {
				profiles++
				if p == nil {
					t.Fatalf("%s: nil profile delivered", name)
				}
				if sum := p.CauseSum(); sum != p.TotalAborts {
					t.Errorf("%s: cause sum %d != total aborts %d", name, sum, p.TotalAborts)
				}
				if p.EngineAborts != 0 && p.EngineAborts != p.TotalAborts {
					t.Errorf("%s: engine aborts %d != attributed aborts %d",
						name, p.EngineAborts, p.TotalAborts)
				}
			}
			f.Run(o)
			if profiles == 0 {
				t.Fatalf("figure %s delivered no profiles", f.ID)
			}
		})
	}
}

// TestProfileOutputParallelDeterminism: with a fixed seed, the full
// profile stream of a figure — delivery order, names, and JSON bytes —
// must be identical whether points run on one host worker or eight.
// Figure 3.1 exercises the harness-pool path (collectors attached per
// cloned point); ext-chaos exercises the direct-drive path (collectors
// riding tsx.Config.Observer on fresh machines under fault injection);
// ext-shard mixes profiled and default-collected points; profiles runs
// STAMP points beside harness points; ext-place runs both, with STAMP
// grids whose profiles feed later points.
func TestProfileOutputParallelDeterminism(t *testing.T) {
	collect := func(id string, parallel int) []byte {
		o := tinyOpts()
		o.Parallel = parallel
		o.Profile = &obs.Options{}
		var buf bytes.Buffer
		o.ProfileSink = func(name string, p *obs.Profile) {
			fmt.Fprintf(&buf, "== %s ==\n", name)
			buf.Write(p.JSON())
		}
		fig := figures.ByID(id)
		if fig == nil {
			t.Fatalf("unknown figure %q", id)
		}
		fig.Run(o)
		return buf.Bytes()
	}
	for _, id := range []string{"3.1", "ext-chaos", "ext-shard", "profiles", "ext-place"} {
		seq := collect(id, 1)
		par := collect(id, 8)
		if len(seq) == 0 {
			t.Fatalf("figure %s collected no profile output", id)
		}
		if !bytes.Equal(seq, par) {
			t.Errorf("figure %s profile stream differs between -parallel 1 and -parallel 8", id)
		}
	}
}
