package obs_test

import (
	"bytes"
	"testing"

	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/tsx"
)

func machineCfg(n int, seed int64) tsx.Config {
	cfg := tsx.DefaultConfig(n)
	cfg.Seed = seed
	cfg.MemWords = 1 << 18
	return cfg
}

// profiledPoint runs one contended experiment point with profiling on.
func profiledPoint(scheme, lock string, seed int64) harness.Result {
	spec := harness.SchemeSpec{Scheme: scheme, Lock: lock}
	return harness.PointSpec{
		Warm: &harness.WarmTemplate{
			Machine: machineCfg(4, seed),
			MkWorkload: func(th *tsx.Thread) harness.Workload {
				return harness.NewRBTree(th, 64, harness.MixExtensive)
			},
		},
		Scheme: spec,
		Cfg: harness.Config{
			Threads:     4,
			CycleBudget: 300_000,
			Profile:     &obs.Options{WindowCycles: 30_000},
		},
	}.Run()
}

// checkInvariants asserts the attribution invariant and internal
// consistency of a profile.
func checkInvariants(t *testing.T, p *obs.Profile) {
	t.Helper()
	if p == nil {
		t.Fatal("no profile collected")
	}
	if sum := p.CauseSum(); sum != p.TotalAborts {
		t.Fatalf("cause sum %d != total aborts %d", sum, p.TotalAborts)
	}
	if p.EngineAborts != 0 && p.EngineAborts != p.TotalAborts {
		t.Fatalf("engine aborts %d != observed aborts %d", p.EngineAborts, p.TotalAborts)
	}
	var thBegun, thCommits, thAborts uint64
	for _, th := range p.Threads {
		thBegun += th.Begun
		thCommits += th.Commits
		thAborts += th.Aborts
		var causes uint64
		for _, c := range th.Causes {
			causes += c.Count
		}
		if causes != th.Aborts {
			t.Fatalf("thread %d cause sum %d != aborts %d", th.Thread, causes, th.Aborts)
		}
	}
	if thBegun != p.TotalBegun || thCommits != p.TotalCommits || thAborts != p.TotalAborts {
		t.Fatalf("per-thread totals (%d,%d,%d) != profile totals (%d,%d,%d)",
			thBegun, thCommits, thAborts, p.TotalBegun, p.TotalCommits, p.TotalAborts)
	}
}

func TestProfileAttribution(t *testing.T) {
	res := profiledPoint("HLE", "TTAS", 7)
	p := res.Profile
	checkInvariants(t, p)
	if p.TotalAborts == 0 {
		t.Fatal("contended HLE run recorded no aborts; workload too tame to test attribution")
	}
	if p.EngineAborts != res.TSX.TotalAborts() {
		t.Fatalf("engine aborts %d != harness TSX aborts %d", p.EngineAborts, res.TSX.TotalAborts())
	}
	if p.Label != "HLE" {
		t.Fatalf("label = %q, want HLE", p.Label)
	}
	// Under plain HLE over TTAS the avalanche is conflict-on-lock-line;
	// the heatmap must name the TTAS word.
	found := false
	for _, l := range p.Lines {
		if l.Label == "ttas-lock" && l.LockLine && l.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("heatmap does not name the ttas-lock line: %+v", p.Lines)
	}
	// Conflict aborts must identify an aggressing thread.
	var aggr uint64
	for _, a := range p.Aggressors {
		if a.Thread < -1 || a.Thread >= 4 {
			t.Fatalf("impossible aggressor %d", a.Thread)
		}
		aggr += a.Count
	}
	conflicts := causeTotal(p, "conflict-lock-line") + causeTotal(p, "conflict-data-line")
	if aggr != conflicts {
		t.Fatalf("aggressor total %d != conflict aborts %d", aggr, conflicts)
	}
	// Latency histograms: one observation per commit and per abort.
	for _, h := range p.Latency {
		var n uint64
		for _, b := range h.Buckets {
			n += b.Count
		}
		if n != h.Count {
			t.Fatalf("%s histogram bucket sum %d != count %d", h.Outcome, n, h.Count)
		}
		switch h.Outcome {
		case "commit":
			if h.Count != p.TotalCommits {
				t.Fatalf("commit histogram %d != commits %d", h.Count, p.TotalCommits)
			}
		case "abort":
			if h.Count != p.TotalAborts {
				t.Fatalf("abort histogram %d != aborts %d", h.Count, p.TotalAborts)
			}
		}
	}
	if len(p.Timeline) == 0 {
		t.Fatal("no timeline windows")
	}
	var spec, grants uint64
	for _, w := range p.Timeline {
		spec += w.SpecCycles
		grants += w.Grants
	}
	if spec == 0 {
		t.Fatal("no speculative occupancy recorded")
	}
	if grants == 0 {
		t.Fatal("no scheduler grants sampled")
	}
}

func causeTotal(p *obs.Profile, class string) uint64 {
	for _, c := range p.Causes {
		if c.Class == class {
			return c.Count
		}
	}
	return 0
}

// TestSerialOccupancy checks that a Standard (never-speculating) run
// charts as serialized time, and an SCM run records both modes.
func TestSerialOccupancy(t *testing.T) {
	p := profiledPoint("Standard", "MCS", 5).Profile
	checkInvariants(t, p)
	var spec, serial uint64
	for _, w := range p.Timeline {
		spec += w.SpecCycles
		serial += w.SerialCycles
	}
	if spec != 0 {
		t.Fatalf("Standard run recorded %d speculative cycles", spec)
	}
	if serial == 0 {
		t.Fatal("Standard run recorded no serialized cycles")
	}

	p = profiledPoint("HLE-SCM", "MCS", 5).Profile
	checkInvariants(t, p)
	spec, serial = 0, 0
	for _, w := range p.Timeline {
		spec += w.SpecCycles
		serial += w.SerialCycles
	}
	if spec == 0 {
		t.Fatal("SCM run recorded no speculative cycles")
	}
}

// TestProfileDeterminism: equal seeds give byte-identical JSON and text.
func TestProfileDeterminism(t *testing.T) {
	a := profiledPoint("HLE-SCM", "MCS", 11).Profile
	b := profiledPoint("HLE-SCM", "MCS", 11).Profile
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("equal seeds produced different profile JSON")
	}
	if a.Text() != b.Text() {
		t.Fatal("equal seeds produced different profile text")
	}
	c := profiledPoint("HLE-SCM", "MCS", 12).Profile
	if bytes.Equal(a.JSON(), c.JSON()) {
		t.Fatal("different seeds produced identical profiles (suspicious)")
	}
}

// stormInjector aborts every in-transaction access to any line once its
// countdown elapses, then rearms.
type stormInjector struct{ every, n int }

func (s *stormInjector) Access(threadID int, clock uint64, line int, write, inTx bool) (uint64, bool) {
	if !inTx {
		return 0, false
	}
	s.n++
	if s.n >= s.every {
		s.n = 0
		return 0, true
	}
	return 0, false
}
func (s *stormInjector) WriteCap(threadID int, clock uint64, limit int) int { return limit }
func (s *stormInjector) Grant(procID int, clock, slice uint64) uint64       { return slice }

// TestInjectedAttribution: injector-forced aborts are classed "injected",
// distinct from organic spurious aborts, while the engine still reports
// them as spurious (golden fingerprints unchanged).
func TestInjectedAttribution(t *testing.T) {
	cfg := machineCfg(2, 9)
	cfg.SpuriousPerAccess = 0
	m := tsx.NewMachine(cfg)
	m.SetInjector(&stormInjector{every: 50})
	col := obs.Attach(m, obs.Options{})
	m.Run(2, func(th *tsx.Thread) {
		ctr := th.AllocLines(1)
		for i := 0; i < 200; i++ {
			th.RTM(func() {
				th.Store(ctr, th.Load(ctr)+1)
			})
		}
	})
	p := col.Profile()
	checkInvariants(t, p)
	if n := causeTotal(p, "injected"); n == 0 {
		t.Fatal("no injected aborts attributed")
	}
	if n := causeTotal(p, "spurious"); n != 0 {
		t.Fatalf("%d spurious aborts attributed with SpuriousPerAccess=0", n)
	}
}

// TestRenderersCoverProfile smoke-tests the text renderers.
func TestRenderersCoverProfile(t *testing.T) {
	p := profiledPoint("HLE", "MCS", 2).Profile
	text := p.Text()
	for _, want := range []string{"abort causes", "waterfall", "hot lines", "attempt latency"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("Text() missing %q section:\n%s", want, text)
		}
	}
	if p.Waterfall() == "" || p.HeatmapText() == "" {
		t.Fatal("empty waterfall/heatmap render")
	}
}
