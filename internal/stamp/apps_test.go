package stamp_test

import (
	"strings"
	"testing"

	"hle/internal/harness"
	"hle/internal/stamp"
	"hle/internal/tsx"
)

// runApp is a helper running one app under one scheme.
func runApp(t *testing.T, mk func(th *tsx.Thread) stamp.App, scheme, lock string, threads int, seed int64) stamp.Result {
	t.Helper()
	cfg := machineCfg(threads, seed)
	res, err := stamp.Run(tsx.NewMachine(cfg), harness.SchemeSpec{Scheme: scheme, Lock: lock}, mk, threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenomeReconstruction(t *testing.T) {
	// Different shapes: tiny, wide duplication, single-segment edge.
	for _, shape := range []struct{ segs, segLen, dup int }{
		{16, 4, 2},
		{64, 8, 4},
		{200, 2, 1},
		{2, 1, 3},
	} {
		res := runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewGenome(shape.segs, shape.segLen, shape.dup)
		}, "HLE-SCM", "MCS", 4, 3)
		if res.Ops.Ops == 0 {
			t.Fatalf("genome %+v did no critical sections", shape)
		}
	}
}

func TestGenomeSingleThread(t *testing.T) {
	runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewGenome(64, 8, 4)
	}, "Standard", "TTAS", 1, 1)
}

func TestIntruderDetectsAllAttacks(t *testing.T) {
	// Validate() inside Run checks detected == planted; exercise various
	// shapes including single-fragment flows.
	for _, shape := range []struct{ flows, per int }{
		{10, 1},
		{50, 4},
		{96, 6},
	} {
		runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewIntruder(shape.flows, shape.per)
		}, "Opt-SLR", "TTAS", 6, 5)
	}
}

func TestIntruderQueueContention(t *testing.T) {
	// The shared queue head must actually be contended: under plain HLE
	// with 8 threads there should be a non-trivial abort rate.
	res := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewIntruder(96, 6)
	}, "HLE", "TTAS", 8, 7)
	if res.TSX.TotalAborts() == 0 {
		t.Error("intruder showed zero aborts; its hot queue should conflict")
	}
}

func TestKMeansContentionByClusterCount(t *testing.T) {
	high := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewKMeans(512, 4, 3, 4)
	}, "HLE", "TTAS", 8, 9)
	low := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewKMeans(512, 32, 3, 4)
	}, "HLE", "TTAS", 8, 9)
	if high.Ops.AttemptsPerOp() < low.Ops.AttemptsPerOp() {
		t.Errorf("kmeans high (k=4) attempts %.2f < low (k=32) %.2f",
			high.Ops.AttemptsPerOp(), low.Ops.AttemptsPerOp())
	}
}

func TestKMeansDeterministicInertia(t *testing.T) {
	a := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewKMeans(256, 8, 3, 5)
	}, "HLE-SCM", "MCS", 4, 11)
	b := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewKMeans(256, 8, 3, 5)
	}, "HLE-SCM", "MCS", 4, 11)
	if a.Runtime != b.Runtime {
		t.Errorf("kmeans runtimes differ: %d vs %d", a.Runtime, b.Runtime)
	}
}

func TestSSCA2Shapes(t *testing.T) {
	for _, shape := range []struct{ v, d int }{
		{16, 1},
		{256, 4},
		{64, 16}, // dense
	} {
		runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewSSCA2(shape.v, shape.d)
		}, "HLE", "TTAS", 4, 13)
	}
}

func TestVacationConservation(t *testing.T) {
	// The conservation invariant (free+reserved, customer totals) is
	// enforced by Validate inside Run; exercise both contention shapes
	// and several schemes, including the standard baseline.
	for _, scheme := range []string{"Standard", "HLE", "HLE-SCM", "Opt-SLR"} {
		runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewVacation(64, 200, 8, true)
		}, scheme, "MCS", 6, 17)
		runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewVacation(256, 200, 4, false)
		}, scheme, "TTAS", 6, 17)
	}
}

func TestVacationLongTransactions(t *testing.T) {
	// Vacation is STAMP's long-transaction member: its mean critical
	// section must dwarf kmeans'.
	vac := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewVacation(64, 200, 8, true)
	}, "Standard", "TTAS", 4, 19)
	km := runApp(t, func(th *tsx.Thread) stamp.App {
		return stamp.NewKMeans(512, 4, 3, 4)
	}, "Standard", "TTAS", 4, 19)
	vacPerOp := float64(vac.Runtime) / float64(vac.Ops.Ops)
	kmPerOp := float64(km.Runtime) / float64(km.Ops.Ops)
	if vacPerOp < 2*kmPerOp {
		t.Errorf("vacation per-op time %.0f not clearly longer than kmeans %.0f", vacPerOp, kmPerOp)
	}
}

func TestAppNames(t *testing.T) {
	names := make([]string, 0, 7)
	for _, a := range stamp.Apps() {
		names = append(names, a.Name)
	}
	want := "genome intruder kmeans_high kmeans_low ssca2 vacation_high vacation_low"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("app list %q, want %q", got, want)
	}
}

// TestValidationCatchesRaces: running an app with NO locking at all must
// (deterministically, at this seed) corrupt state and fail validation —
// evidence the validators have teeth.
func TestValidationCatchesRaces(t *testing.T) {
	cfg := machineCfg(8, 23)
	_, err := stamp.Run(tsx.NewMachine(cfg), harness.SchemeSpec{Scheme: "NoLock"},
		func(th *tsx.Thread) stamp.App { return stamp.NewVacation(16, 300, 8, true) }, 8, nil)
	if err == nil {
		t.Fatal("vacation under NoLock validated cleanly; validator is too weak")
	}
}

func TestLabyrinthRoutes(t *testing.T) {
	// Validation (path disjointness, adjacency, grid-stamp consistency)
	// runs inside stamp.Run; exercise several schemes and shapes.
	for _, scheme := range []string{"Standard", "HLE", "HLE-SCM", "Opt-SLR"} {
		res := runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewLabyrinth(24, 24, 24)
		}, scheme, "TTAS", 4, 31)
		if res.Ops.Ops != 24 {
			t.Fatalf("%s: %d routing attempts, want 24", scheme, res.Ops.Ops)
		}
	}
}

func TestLabyrinthCapacityAborts(t *testing.T) {
	// On a grid whose BFS read set exceeds the configured L1, speculative
	// routing must hit capacity aborts and still complete via fallback.
	cfg := machineCfg(4, 33)
	cfg.L1ReadLines = 32
	cfg.ReadSetLines = 64
	res, err := stamp.Run(tsx.NewMachine(cfg), harness.SchemeSpec{Scheme: "Opt-SLR", Lock: "TTAS"},
		func(th *tsx.Thread) stamp.App { return stamp.NewLabyrinth(40, 40, 24) }, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TSX.Aborted[3] == 0 { // CauseCapacityRead
		t.Error("large-grid labyrinth produced no read-capacity aborts")
	}
	if res.Ops.Ops != 24 {
		t.Fatalf("routing attempts %d, want 24", res.Ops.Ops)
	}
}

func TestYadaRefinesAll(t *testing.T) {
	for _, scheme := range []string{"Standard", "HLE", "HLE-SCM", "Opt-SLR"} {
		res := runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewYada(90)
		}, scheme, "TTAS", 6, 41)
		if res.Ops.Ops == 0 {
			t.Fatalf("%s: yada did no refinements", scheme)
		}
	}
}

func TestYadaSingleThreadDeterministic(t *testing.T) {
	a := runApp(t, func(th *tsx.Thread) stamp.App { return stamp.NewYada(60) }, "Standard", "TTAS", 1, 43)
	b := runApp(t, func(th *tsx.Thread) stamp.App { return stamp.NewYada(60) }, "Standard", "TTAS", 1, 43)
	if a.Runtime != b.Runtime || a.Ops != b.Ops {
		t.Fatal("yada single-thread runs diverge")
	}
}

func TestBayesAcyclic(t *testing.T) {
	for _, scheme := range []string{"Standard", "HLE", "HLE-SCM", "Opt-SLR"} {
		res := runApp(t, func(th *tsx.Thread) stamp.App {
			return stamp.NewBayes(48, 96)
		}, scheme, "MCS", 6, 45)
		if res.Ops.Ops != 96 {
			t.Fatalf("%s: %d edge decisions, want 96", scheme, res.Ops.Ops)
		}
	}
}

func TestBayesLongTransactions(t *testing.T) {
	// Bayes's acyclicity walks must make its critical sections clearly
	// longer than intruder's queue pops.
	bayes := runApp(t, func(th *tsx.Thread) stamp.App { return stamp.NewBayes(48, 96) }, "Standard", "TTAS", 4, 47)
	intr := runApp(t, func(th *tsx.Thread) stamp.App { return stamp.NewIntruder(96, 6) }, "Standard", "TTAS", 4, 47)
	bayesPerOp := float64(bayes.Runtime) / float64(bayes.Ops.Ops)
	intrPerOp := float64(intr.Runtime) / float64(intr.Ops.Ops)
	if bayesPerOp < 2*intrPerOp {
		t.Errorf("bayes per-op %.0f not clearly longer than intruder %.0f", bayesPerOp, intrPerOp)
	}
}

func TestExtendedAppNames(t *testing.T) {
	apps := []stamp.App{stamp.NewLabyrinth(40, 40, 16), stamp.NewYada(90), stamp.NewBayes(48, 96)}
	names := make([]string, 0, len(apps))
	for _, a := range apps {
		names = append(names, a.Name())
	}
	if got := strings.Join(names, " "); got != "labyrinth yada bayes" {
		t.Errorf("extended app names %q", got)
	}
}
