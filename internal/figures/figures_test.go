package figures_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"hle/internal/figures"
	"hle/internal/obs"
)

func tinyOpts() figures.Options {
	return figures.Options{Threads: 4, Quick: true, Seed: 1, Budget: 100_000}
}

// figurePass is one configuration the figure tests run a figure in. Each
// figure runs at most once per pass in a test binary; every test that
// checks a property of that pass reads the same run (runPass).
type figurePass struct {
	name     string
	parallel int
	profiled bool
}

var (
	// pass1 is the reference run: profiled, on one worker. Its digests
	// are the ones goldenFigures pins.
	pass1 = figurePass{"pass 1 (profiled, 1 worker)", 1, true}
	// pass2 runs every figure unprofiled on eight workers. Its tables
	// must equal pass 1's: profiling is passive, and the tables do not
	// depend on the worker count.
	pass2 = figurePass{"pass 2 (unprofiled, 8 workers)", 8, false}
	// pass3 runs streamFigures profiled on eight workers. Both digests
	// must equal pass 1's: the profile stream does not depend on the
	// worker count either.
	pass3 = figurePass{"pass 3 (profiled, 8 workers)", 8, true}
)

func (p figurePass) options() figures.Options {
	o := tinyOpts()
	o.Parallel = p.parallel
	if p.profiled {
		o.Profile = &obs.Options{}
	}
	return o
}

// streamFigures are the figures whose profile stream is checked on eight
// workers too. Figure 3.1 exercises the harness-pool path (collectors
// attached per cloned point); ext-chaos the soak path (a harness.Profiler
// around a forked soak machine's run under fault injection); ext-shard
// mixes profiled and default-collected points; profiles runs STAMP points
// beside harness points; ext-place runs both, with STAMP grids whose
// profiles feed later points.
var streamFigures = []string{"3.1", "ext-chaos", "ext-shard", "profiles", "ext-place"}

// figureRun is what one pass of one figure showed.
type figureRun struct {
	digest      figureDigest
	profiles    int      // profiles delivered
	shape       []string // table-shape violations
	attribution []string // profile-attribution violations
}

type runKey struct {
	id   string
	pass figurePass
}

// figureRuns holds every run made so far in this test binary. The figure
// tests do not run in parallel, so it needs no lock. With -count above 1
// later iterations re-check these runs rather than repeat them;
// TestDeterministicFigures always repeats its run.
var figureRuns = map[runKey]*figureRun{}

// runPass returns what f showed in pass p, running it the first time a
// test asks.
func runPass(f figures.Figure, p figurePass) *figureRun {
	k := runKey{f.ID, p}
	if r, ok := figureRuns[k]; ok {
		return r
	}
	r := runFigure(f, p.options())
	figureRuns[k] = r
	return r
}

// runFigure runs f under o. It records every table-shape violation and,
// when o profiles, every attribution violation of a delivered profile, and
// digests the rendered tables and the profile stream.
func runFigure(f figures.Figure, o figures.Options) *figureRun {
	r := &figureRun{}
	ph := fnv.New64a()
	o.ProfileSink = func(name string, p *obs.Profile) {
		r.profiles++
		if p == nil {
			r.attribution = append(r.attribution, fmt.Sprintf("%s: nil profile delivered", name))
			return
		}
		if sum := p.CauseSum(); sum != p.TotalAborts {
			r.attribution = append(r.attribution,
				fmt.Sprintf("%s: cause sum %d != total aborts %d", name, sum, p.TotalAborts))
		}
		if p.EngineAborts != p.TotalAborts {
			r.attribution = append(r.attribution,
				fmt.Sprintf("%s: engine aborts %d != attributed aborts %d", name, p.EngineAborts, p.TotalAborts))
		}
		fmt.Fprintf(ph, "== %s ==\n", name)
		ph.Write(p.JSON())
	}
	tables := f.Run(o)
	if len(tables) == 0 {
		r.shape = append(r.shape, "no tables")
	}
	th := fnv.New64a()
	for _, tb := range tables {
		if len(tb.Header) == 0 {
			r.shape = append(r.shape, fmt.Sprintf("table %q has no header", tb.Title))
			continue
		}
		if len(tb.Rows) == 0 {
			r.shape = append(r.shape, fmt.Sprintf("table %q has no rows", tb.Title))
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				r.shape = append(r.shape, fmt.Sprintf("table %q: row width %d != header width %d",
					tb.Title, len(row), len(tb.Header)))
				break
			}
		}
		rendered := tb.String()
		if !strings.Contains(rendered, tb.Header[0]) {
			r.shape = append(r.shape, fmt.Sprintf("table %q did not render its header", tb.Title))
		}
		th.Write([]byte(rendered))
	}
	r.digest = figureDigest{tables: th.Sum64(), profiles: ph.Sum64()}
	return r
}

// compareDigests reports where got differs from want: the tables digest
// always, the profile-stream digest when profiles is set.
func compareDigests(t *testing.T, what string, got, want figureDigest, profiles bool) {
	t.Helper()
	if got.tables != want.tables {
		t.Errorf("%s: tables digest 0x%016x, want 0x%016x", what, got.tables, want.tables)
	}
	if profiles && got.profiles != want.profiles {
		t.Errorf("%s: profiles digest 0x%016x, want 0x%016x", what, got.profiles, want.profiles)
	}
}

// TestEveryFigureRuns: each generator produces non-empty tables with a
// header, rows as wide as the header, and the header rendered, in pass 1
// and in pass 2.
func TestEveryFigureRuns(t *testing.T) {
	for _, f := range figures.All() {
		t.Run(f.ID, func(t *testing.T) {
			for _, p := range []figurePass{pass1, pass2} {
				for _, v := range runPass(f, p).shape {
					t.Errorf("%s: %s", p.name, v)
				}
			}
		})
	}
}

// TestByID round-trips the registry.
func TestByID(t *testing.T) {
	for _, f := range figures.All() {
		got := figures.ByID(f.ID)
		if got == nil || got.Title != f.Title {
			t.Fatalf("ByID(%q) failed", f.ID)
		}
	}
	if figures.ByID("nope") != nil {
		t.Fatal("ByID of unknown id should be nil")
	}
}

// TestDeterministicFigures: the same options produce identical tables and
// profile streams. Figure 3.1 runs again with pass 1's options and must
// match pass 1.
func TestDeterministicFigures(t *testing.T) {
	f := *figures.ByID("3.1")
	again := runFigure(f, pass1.options())
	compareDigests(t, "figure 3.1, second run vs "+pass1.name, again.digest, runPass(f, pass1).digest, true)
}
