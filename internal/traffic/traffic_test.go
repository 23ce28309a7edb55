package traffic_test

import (
	"fmt"
	"math"
	"testing"

	"hle/internal/harness"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

func testMachine(procs, keys int) *tsx.Machine {
	cfg := tsx.DefaultConfig(procs)
	cfg.Seed = 1
	cfg.MemWords = keys*64 + 1<<16
	return tsx.NewMachine(cfg)
}

// TestZipfRankFrequency draws a large sample and checks the observed
// rank-frequency curve against the configured exponent: the r-th most
// popular key should be drawn with probability ∝ 1/(r+1)^s.
func TestZipfRankFrequency(t *testing.T) {
	const (
		keys  = 128
		s     = 1.2
		draws = 100_000
	)
	m := testMachine(1, keys)
	m.RunOne(func(th *tsx.Thread) {
		w := traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{
			Keys: keys, Mix: harness.MixLookupOnly, ZipfS: s,
		})
		domain := w.Domain()
		counts := make(map[uint64]int)
		for i := 0; i < draws; i++ {
			op := w.NextOp(th)
			if op.Kind != harness.OpLookup {
				t.Fatalf("lookup-only mix drew %v", op.Kind)
			}
			if op.Key >= uint64(domain) {
				t.Fatalf("key %d outside domain %d", op.Key, domain)
			}
			counts[op.Key]++
		}
		// Sort observed counts descending: the rank-frequency curve does
		// not depend on which keys the hidden permutation made popular.
		sorted := make([]int, 0, len(counts))
		for _, n := range counts {
			sorted = append(sorted, n)
		}
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		// Expected P(rank r) = (r+1)^-s / H(domain, s).
		h := 0.0
		for r := 0; r < domain; r++ {
			h += math.Pow(float64(r+1), -s)
		}
		for _, rank := range []int{0, 1, 3, 7} {
			want := math.Pow(float64(rank+1), -s) / h * draws
			got := float64(sorted[rank])
			if math.Abs(got-want) > 0.12*want {
				t.Errorf("rank %d drawn %d times, want ~%.0f (s=%.1f)", rank, sorted[rank], want, s)
			}
		}
	})
}

// TestUniformWhenNoExponent checks ZipfS=0 spreads draws evenly.
func TestUniformWhenNoExponent(t *testing.T) {
	const keys, draws = 64, 50_000
	m := testMachine(1, keys)
	m.RunOne(func(th *tsx.Thread) {
		w := traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{Keys: keys, Mix: harness.MixLookupOnly})
		counts := make(map[uint64]int)
		for i := 0; i < draws; i++ {
			counts[w.NextOp(th).Key]++
		}
		want := float64(draws) / float64(w.Domain())
		for key, n := range counts {
			if math.Abs(float64(n)-want) > 0.35*want {
				t.Errorf("key %d drawn %d times, want ~%.0f (uniform)", key, n, want)
			}
		}
	})
}

// TestSeedDeterminism checks the op stream is a pure function of the
// traffic seed and the machine seed, and that changing the traffic seed
// changes the hidden permutation.
func TestSeedDeterminism(t *testing.T) {
	const keys = 64
	stream := func(trafficSeed int64) string {
		m := testMachine(1, keys)
		var s string
		m.RunOne(func(th *tsx.Thread) {
			w := traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{
				Keys: keys, Mix: harness.MixExtensive, ZipfS: 0.8, Seed: trafficSeed,
				Storm: &traffic.Storm{EpochCycles: 10_000},
			})
			for i := 0; i < 500; i++ {
				op := w.NextOp(th)
				s += fmt.Sprintf("%d:%d,", op.Kind, op.Key)
			}
		})
		return s
	}
	a, b := stream(3), stream(3)
	if a != b {
		t.Fatal("identical seeds produced different op streams")
	}
	if c := stream(4); c == a {
		t.Fatal("different traffic seeds produced identical op streams")
	}
}

// TestTenantPartition checks two-tenant mode: even threads draw only from
// the lower half of the domain with the primary mix, odd threads only from
// the upper half with the tenant mix, at the configured write ratios.
func TestTenantPartition(t *testing.T) {
	const keys, draws = 128, 20_000
	tenantB := harness.MixExtensive // 50% insert / 50% delete
	m := testMachine(2, keys)
	var w *traffic.Workload
	m.RunOne(func(th *tsx.Thread) {
		w = traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{
			Keys: keys, Mix: harness.MixLookupOnly, TenantMix: &tenantB,
		})
	})
	inserts := make([]int, 2)
	m.Run(2, func(th *tsx.Thread) {
		half := uint64(w.Domain() / 2)
		for i := 0; i < draws; i++ {
			op := w.NextOp(th)
			if th.ID%2 == 0 && op.Key >= half {
				t.Errorf("tenant A (thread %d) drew upper-half key %d", th.ID, op.Key)
				return
			}
			if th.ID%2 == 1 && op.Key < half {
				t.Errorf("tenant B (thread %d) drew lower-half key %d", th.ID, op.Key)
				return
			}
			if op.Kind == harness.OpInsert {
				inserts[th.ID]++
			}
		}
	})
	if inserts[0] != 0 {
		t.Errorf("lookup-only tenant A drew %d inserts", inserts[0])
	}
	frac := float64(inserts[1]) / draws
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("tenant B insert fraction %.3f, want ~0.50", frac)
	}
}

// TestStormRotation checks that with HotPct=100 every draw inside one
// epoch lands on the small hot set, and the set rotates across epochs.
func TestStormRotation(t *testing.T) {
	const keys = 256
	m := testMachine(1, keys)
	m.RunOne(func(th *tsx.Thread) {
		w := traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{
			Keys: keys, Mix: harness.MixLookupOnly,
			Storm: &traffic.Storm{EpochCycles: 50_000, HotKeys: 2, HotPct: 100},
		})
		hotSet := func() map[uint64]bool {
			set := make(map[uint64]bool)
			for i := 0; i < 100; i++ {
				set[w.NextOp(th).Key] = true
			}
			return set
		}
		first := hotSet()
		if len(first) > 2 {
			t.Fatalf("epoch 0 hot set has %d keys, want <= 2", len(first))
		}
		th.Work(50_000) // advance the virtual clock into the next epoch
		second := hotSet()
		if len(second) > 2 {
			t.Fatalf("epoch 1 hot set has %d keys, want <= 2", len(second))
		}
		same := true
		for k := range second {
			if !first[k] {
				same = false
			}
		}
		if same {
			t.Error("hot set did not rotate between epochs")
		}
	})
}

// TestRampAddsThinkTime checks the diurnal ramp slows the offered load
// near the trough: drawing the same op count takes more virtual time with
// the ramp than without it.
func TestRampAddsThinkTime(t *testing.T) {
	const keys = 64
	elapsed := func(ramp *traffic.Ramp) uint64 {
		m := testMachine(1, keys)
		var cycles uint64
		m.RunOne(func(th *tsx.Thread) {
			w := traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{Keys: keys, Mix: harness.MixLookupOnly, Ramp: ramp})
			start := th.Clock()
			for i := 0; i < 500; i++ {
				w.NextOp(th)
			}
			cycles = th.Clock() - start
		})
		return cycles
	}
	with := elapsed(&traffic.Ramp{PeriodCycles: 100_000, TroughThink: 400})
	without := elapsed(nil)
	if with <= without {
		t.Errorf("ramp added no think time: %d cycles with, %d without", with, without)
	}
}

// TestWorkloadUnderHarness runs the traffic workload end to end under the
// harness with a routed store, checking ops complete, scans appear, and
// the structures stay consistent with their striped counters.
func TestWorkloadUnderHarness(t *testing.T) {
	tenantB := harness.MixExtensive
	tmpl := &harness.WarmTemplate{
		Machine: func() tsx.Config {
			cfg := tsx.DefaultConfig(4)
			cfg.Seed = 2
			cfg.MemWords = 256*64 + 1<<16
			return cfg
		}(),
		MkWorkload: func(th *tsx.Thread) harness.Workload {
			return traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{
				Keys: 128, Mix: harness.MixModerate, ZipfS: 1.1, ScanPct: 2,
				Storm:     &traffic.Storm{EpochCycles: 20_000},
				TenantMix: &tenantB,
			})
		},
	}
	m, w := tmpl.Fork()
	tw := w.(*traffic.Workload)
	var rs traffic.RoutedStore
	m.RunOne(func(th *tsx.Thread) {
		rs = traffic.Route(shard.Bind(th, tw.Data(), shard.StoreConfig{}))
	})
	res := harness.Run(m, rs, w, harness.Config{Threads: 4, CycleBudget: 80_000})
	if res.Ops.Ops == 0 {
		t.Fatal("no operations completed")
	}
	m.RunOne(func(th *tsx.Thread) {
		d := tw.Data()
		present := make([]uint64, d.Shards())
		for key := uint64(0); key < 2*128; key++ { // the domain is 2*Keys
			if d.Contains(th, key) {
				present[d.ShardOf(key)]++
			}
		}
		for si := range present {
			if ss := d.ShardSize(th, si); ss != present[si] {
				t.Errorf("shard %d: size counter %d != keys present %d", si, ss, present[si])
			}
		}
	})
}
