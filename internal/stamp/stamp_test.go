package stamp_test

import (
	"testing"

	"hle/internal/harness"
	"hle/internal/stamp"
	"hle/internal/tsx"
)

func machineCfg(n int, seed int64) tsx.Config {
	cfg := tsx.DefaultConfig(n)
	cfg.Seed = seed
	cfg.MemWords = 1 << 18
	return cfg
}

// TestAllAppsAllSchemesValidate is the suite's integration test: every
// application must produce correct output under every scheme.
func TestAllAppsAllSchemesValidate(t *testing.T) {
	specs := []harness.SchemeSpec{
		{Scheme: "Standard", Lock: "TTAS"},
		{Scheme: "Standard", Lock: "MCS"},
		{Scheme: "HLE", Lock: "TTAS"},
		{Scheme: "HLE", Lock: "MCS"},
		{Scheme: "HLE-SCM", Lock: "TTAS"},
		{Scheme: "HLE-SCM", Lock: "MCS"},
		{Scheme: "Pes-SLR", Lock: "TTAS"},
		{Scheme: "Opt-SLR", Lock: "MCS"},
		{Scheme: "Opt-SLR-SCM", Lock: "TTAS"},
	}
	for _, app := range stamp.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, spec := range specs {
				res, err := stamp.Run(tsx.NewMachine(machineCfg(4, 11)), spec, app.Make, 4, nil)
				if err != nil {
					t.Fatalf("%v: %v", spec, err)
				}
				if res.Runtime == 0 || res.Ops.Ops == 0 {
					t.Fatalf("%v: empty result %+v", spec, res)
				}
			}
		})
	}
}

// TestDeterministicRuntime: same config, same virtual runtime.
func TestDeterministicRuntime(t *testing.T) {
	app := stamp.Apps()[1] // intruder
	spec := harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"}
	a, err := stamp.Run(tsx.NewMachine(machineCfg(4, 5)), spec, app.Make, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stamp.Run(tsx.NewMachine(machineCfg(4, 5)), spec, app.Make, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.Ops != b.Ops {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestContentionProfiles: the apps' relative contention levels must match
// the STAMP characterization — intruder and kmeans_high conflict much more
// than ssca2 under plain HLE.
func TestContentionProfiles(t *testing.T) {
	spec := harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"}
	apps := stamp.Apps()
	appByName := map[string]float64{}
	for _, app := range apps {
		res, err := stamp.Run(tsx.NewMachine(machineCfg(8, 7)), spec, app.Make, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		appByName[app.Name] = res.Ops.AttemptsPerOp()
	}
	if appByName["intruder"] <= appByName["ssca2"] {
		t.Errorf("intruder attempts/op %.2f should exceed ssca2 %.2f",
			appByName["intruder"], appByName["ssca2"])
	}
	if appByName["kmeans_high"] < appByName["kmeans_low"] {
		t.Errorf("kmeans_high attempts/op %.2f should be >= kmeans_low %.2f",
			appByName["kmeans_high"], appByName["kmeans_low"])
	}
}

// TestMoreThreadsFasterGenome: the fixed workload should finish sooner in
// virtual time with more threads under an elision scheme.
func TestMoreThreadsFasterGenome(t *testing.T) {
	app := stamp.Apps()[0]
	spec := harness.SchemeSpec{Scheme: "HLE-SCM", Lock: "MCS"}
	one, err := stamp.Run(tsx.NewMachine(machineCfg(1, 3)), spec, app.Make, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := stamp.Run(tsx.NewMachine(machineCfg(8, 3)), spec, app.Make, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eight.Runtime >= one.Runtime {
		t.Fatalf("8-thread runtime %d not faster than 1-thread %d", eight.Runtime, one.Runtime)
	}
}

// TestBarrier exercises the sense-reversing barrier directly.
func TestBarrier(t *testing.T) {
	m := tsx.NewMachine(machineCfg(6, 1))
	var b *stamp.Barrier
	m.RunOne(func(th *tsx.Thread) { b = stamp.NewBarrier(th, 6) })
	phase := make([]int, 6)
	m.Run(6, func(th *tsx.Thread) {
		for round := 0; round < 5; round++ {
			th.Work(uint64(th.Rand().Intn(500)))
			phase[th.ID] = round
			b.Wait(th)
			// After the barrier, every thread must be in the same
			// round.
			for id, p := range phase {
				if p != round {
					t.Errorf("round %d: thread %d at %d", round, id, p)
				}
			}
			b.Wait(th)
		}
	})
}
