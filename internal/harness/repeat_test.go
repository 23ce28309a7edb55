package harness_test

import (
	"testing"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

// TestRepeatedPointProfile pins one collector per experiment point: a
// profiled two-repetition point on a store with many hot lines lists at
// most TopLines heatmap lines, each carrying its full count over both
// repetitions (the count the same point reports with an untruncated
// heatmap), and the attribution invariant spans both repetitions.
func TestRepeatedPointProfile(t *testing.T) {
	const keys = 512
	mcfg := tsx.DefaultConfig(8)
	mcfg.Seed = 3
	mcfg.MemWords = keys*64 + 1<<17
	wt := &harness.WarmTemplate{
		Machine: mcfg,
		MkWorkload: func(th *tsx.Thread) harness.Workload {
			return traffic.New(th, shard.DataConfig{Shards: 16, Backend: shard.RBTree},
				traffic.Spec{Keys: keys, Mix: harness.MixModerate, ZipfS: 1.2})
		},
	}
	_, w := wt.Fork()
	data := w.(*traffic.Workload).Data()
	point := func(scheme string, topLines int) harness.PointSpec {
		maker := shard.SchemeMakerByName(scheme)
		return harness.PointSpec{
			Warm: wt,
			MkScheme: func(th *tsx.Thread) core.Scheme {
				return traffic.Route(shard.Bind(th, data, shard.StoreConfig{MkScheme: maker}))
			},
			Seed: 11,
			Runs: 2,
			Cfg: harness.Config{Threads: 8, CycleBudget: 1_500_000, Warmup: 1_500_000,
				Profile: &obs.Options{TopLines: topLines}},
		}
	}
	schemes := []string{"HLE", "HLE-SCM"}
	var points []harness.PointSpec
	for _, s := range schemes {
		points = append(points, point(s, 0), point(s, -1))
	}
	results := runPoints(0, points)
	for i, scheme := range schemes {
		p, full := results[2*i].Profile, results[2*i+1].Profile
		if len(full.Lines) <= obs.DefaultTopLines {
			t.Fatalf("%s: only %d hot lines; the point must overflow the heatmap bound", scheme, len(full.Lines))
		}
		if len(p.Lines) > obs.DefaultTopLines {
			t.Errorf("%s: heatmap lists %d lines, bound %d", scheme, len(p.Lines), obs.DefaultTopLines)
		}
		counts := make(map[int]uint64, len(full.Lines))
		for _, l := range full.Lines {
			counts[l.Line] = l.Count
		}
		for _, l := range p.Lines {
			if l.Count != counts[l.Line] {
				t.Errorf("%s: line %d (%s) counts %d, untruncated heatmap %d",
					scheme, l.Line, l.Label, l.Count, counts[l.Line])
			}
		}
		if p.CauseSum() != p.TotalAborts || p.TotalAborts != p.EngineAborts {
			t.Errorf("%s: attribution broken: causes %d, observed %d, engine %d",
				scheme, p.CauseSum(), p.TotalAborts, p.EngineAborts)
		}
	}

	// An Adaptive point's controller log is the first repetition's log
	// (the one-repetition point's) followed by the second's, renumbered
	// into one sequence.
	spec := harness.SchemeSpec{Scheme: "Adaptive", Lock: "TTAS"}
	adaptive := func(runs int) *obs.Profile {
		return harness.PointSpec{
			Warm: &harness.WarmTemplate{
				Machine: machineCfg(4, 5),
				MkWorkload: func(th *tsx.Thread) harness.Workload {
					return harness.NewRBTree(th, 64, harness.MixExtensive)
				},
			},
			Scheme: spec,
			Runs:   runs,
			Cfg:    harness.Config{Threads: 4, CycleBudget: 300_000, Profile: &obs.Options{}},
		}.Run().Profile
	}
	one, two := adaptive(1), adaptive(2)
	if len(one.Controller) == 0 || len(two.Controller) <= len(one.Controller) {
		t.Fatalf("controller logs: %d events for one repetition, %d for two; want both repetitions to transition",
			len(one.Controller), len(two.Controller))
	}
	for i, ev := range two.Controller {
		if ev.Seq != i {
			t.Fatalf("controller event %d has Seq %d", i, ev.Seq)
		}
		if i < len(one.Controller) && ev != one.Controller[i] {
			t.Fatalf("controller event %d = %+v, one-repetition point has %+v", i, ev, one.Controller[i])
		}
	}
}
