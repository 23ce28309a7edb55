package tsx

import (
	"math/rand"
	"reflect"
	"testing"

	"hle/internal/mem"
	"hle/internal/sim"
)

// grantLog is an Observer that records every scheduler grant.
type grantLog struct{ grants []uint64 }

func (g *grantLog) BindMachine(*Machine)                                     {}
func (g *grantLog) TxBegin(int, uint64)                                      {}
func (g *grantLog) TxCommit(int, uint64, uint64, int)                        {}
func (g *grantLog) TxAbort(int, uint64, uint64, Cause, int, int, bool, bool) {}
func (g *grantLog) Serial(int, uint64, bool)                                 {}
func (g *grantLog) Grant(id int, clock uint64)                               { g.grants = append(g.grants, uint64(id), clock) }

// spinOutcome is everything a run of spinWorkload can show.
type spinOutcome struct {
	Clocks []uint64
	Stats  []Stats
	Grants []uint64
	Trace  []TraceEvent
	Served uint64
}

// spinWorkload runs n threads that each take a test-and-test-and-set lock
// iters times — first by eliding it in an RTM transaction that spins inside
// (where Spin is the literal loop and PAUSE aborts), then through SpinWhile
// and a swap — and after each release wait a bounded not-equal Spin for the
// lock to look free. With passThrough set a do-nothing injector is
// installed, which keeps every wait on its coroutine.
func spinWorkload(t *testing.T, n, iters int, passThrough bool) spinOutcome {
	cfg := DefaultConfig(n)
	cfg.Seed = 3
	cfg.TraceRing = 1 << 14
	m := NewMachine(cfg)
	var lock, ctr mem.Addr
	m.RunOne(func(th *Thread) { lock, ctr = th.AllocLines(1), th.AllocLines(1) })
	log := new(grantLog)
	m.SetObserver(log)
	if passThrough {
		m.SetInjector(&testInjector{})
	}
	served := sim.ServedGrants()
	threads := m.Run(n, func(th *Thread) {
		for i := 0; i < iters; i++ {
			ok, _ := th.RTM(func() {
				th.SpinWhile(lock, 1)
				th.Store(ctr, th.Load(ctr)+1)
			})
			if !ok {
				for {
					th.SpinWhile(lock, 1)
					if th.Swap(lock, 1) == 0 {
						break
					}
				}
				th.Store(ctr, th.Load(ctr)+1)
				th.Work(uint64(th.Rand().Intn(40)))
				th.Store(lock, 0)
			}
			th.Spin(lock, 0, false, 3)
		}
	})
	out := spinOutcome{Grants: log.grants, Trace: m.TraceEvents(), Served: sim.ServedGrants() - served}
	for _, th := range threads {
		out.Clocks = append(out.Clocks, th.Clock())
		out.Stats = append(out.Stats, th.Stats)
	}
	var total uint64
	m.RunOne(func(th *Thread) { total = th.Load(ctr) })
	if want := uint64(n * iters); total != want {
		t.Fatalf("counter = %d after %d increments", total, want)
	}
	return out
}

// TestSpinServedMatchesSwitched: a machine whose spin waits are served in
// place runs exactly as one whose waits all resume their coroutines — same
// clocks, transaction statistics, grants and flight-recorder events — and
// it does serve grants in place, where the injected machine serves none.
func TestSpinServedMatchesSwitched(t *testing.T) {
	served := spinWorkload(t, 4, 60, false)
	switched := spinWorkload(t, 4, 60, true)
	if served.Served == 0 {
		t.Error("no grant was served in place")
	}
	if switched.Served != 0 {
		t.Errorf("%d grants served in place with an injector installed", switched.Served)
	}
	served.Served, switched.Served = 0, 0
	if !reflect.DeepEqual(served, switched) {
		t.Errorf("served run differs from switched run:\nclocks %v vs %v\nstats %+v vs %+v\n%d vs %d grants, %d vs %d events",
			served.Clocks, switched.Clocks, served.Stats, switched.Stats,
			len(served.Grants), len(switched.Grants), len(served.Trace), len(switched.Trace))
	}
}

// TestSpinBoundedRounds: a bounded Spin on a word that never changes loads
// it exactly rounds times, pausing after each load, and returns the value
// it last read; with no rounds it loads nothing and returns val. It holds
// with the waiter's grants served in place and with them switched.
func TestSpinBoundedRounds(t *testing.T) {
	for _, passThrough := range []bool{false, true} {
		cfg := DefaultConfig(2)
		cfg.TraceRing = 1 << 12
		m := NewMachine(cfg)
		if passThrough {
			m.SetInjector(&testInjector{})
		}
		var word mem.Addr
		m.RunOne(func(th *Thread) {
			word = th.AllocLines(1)
			th.Store(word, 9)
		})
		var got, none uint64
		served := sim.ServedGrants()
		threads := m.Run(2, func(th *Thread) {
			if th.ID == 0 {
				for i := 0; i < 200; i++ {
					th.Work(3) // interleaves with the waiter
				}
				return
			}
			got = th.Spin(word, 0, false, 7)
			none = th.Spin(word, 4, false, 0)
		})
		served = sim.ServedGrants() - served
		loads := 0
		for _, e := range m.TraceEvents() {
			if e.Thread == 1 && e.Kind == EvLoad && e.Addr == word {
				loads++
			}
		}
		if loads != 7 || got != 9 || none != 4 {
			t.Errorf("passThrough=%v: %d loads, returned %d and %d; want 7 loads, 9 and 4", passThrough, loads, got, none)
		}
		// Every load read 9, so each was followed by a pause.
		costs := cfg.Costs
		if min := 7 * (costs.Load + costs.Pause); threads[1].Clock() < min {
			t.Errorf("passThrough=%v: waiter clock %d below its %d cycles of loads and pauses", passThrough, threads[1].Clock(), min)
		}
		if (served == 0) != passThrough {
			t.Errorf("passThrough=%v: %d grants served in place", passThrough, served)
		}
	}
}

// TestJitterRemMatches64Bit: the 32-bit jitter remainder equals the 64-bit
// formula for every span the machine's costs can produce and across the
// 32-bit boundary.
func TestJitterRemMatches64Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []uint64{0, 1, 2, 1<<31 - 2, 1<<31 - 1}
	for i := 0; i < 64; i++ {
		draws = append(draws, uint64(rng.Int63())>>32)
	}
	check := func(span uint64) {
		for _, r := range draws {
			if got, want := jitterRem(r, span), r%(span+1); got != want {
				t.Fatalf("jitterRem(%d, %d) = %d, want %d", r, span, got, want)
			}
		}
	}
	// Every span up to 1<<14 (any cost the cost models charge, at any
	// jitter up to 100%), then a sweep to the 32-bit boundary and past.
	for span := uint64(1); span <= 1<<14; span++ {
		check(span)
	}
	for span := uint64(1 << 14); span < 1<<33; span = span*3/2 + 1 {
		check(span)
	}
	for _, span := range []uint64{1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 1, 1 << 32, 1<<63 - 1} {
		check(span)
	}
}
