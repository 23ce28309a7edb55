package shard_test

import (
	"testing"

	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

func testMachine(procs, elems int) *tsx.Machine {
	cfg := tsx.DefaultConfig(procs)
	cfg.Seed = 1
	cfg.MemWords = elems*32 + 1<<16
	return tsx.NewMachine(cfg)
}

// TestRoutingSpreadsKeys checks that the default hash routes a uniform
// key range across all shards without starving any of them, and that
// routing is a pure function of the key.
func TestRoutingSpreadsKeys(t *testing.T) {
	m := testMachine(1, 64)
	m.RunOne(func(th *tsx.Thread) {
		d := shard.NewData(th, shard.DataConfig{Shards: 8, Backend: shard.HashTable})
		counts := make([]int, d.Shards())
		for k := uint64(0); k < 4096; k++ {
			si := d.ShardOf(k)
			if si != d.ShardOf(k) {
				t.Fatalf("routing of key %d not stable", k)
			}
			counts[si]++
		}
		for si, n := range counts {
			// Uniform would be 512 per shard; a badly mixing hash would
			// leave some shard nearly empty.
			if n < 256 || n > 768 {
				t.Errorf("shard %d got %d of 4096 keys, want ~512", si, n)
			}
		}
	})
}

// TestSizeCountersTrackStructure drives raw inserts and deletes and
// checks the striped size counters against a walk of each shard's
// structure, for both backends.
func TestSizeCountersTrackStructure(t *testing.T) {
	for _, backend := range []shard.Backend{shard.RBTree, shard.HashTable} {
		m := testMachine(1, 2048)
		m.RunOne(func(th *tsx.Thread) {
			d := shard.NewData(th, shard.DataConfig{Shards: 4, Backend: backend})
			d.Populate(th, 512, 1024)
			for i := 0; i < 2000; i++ {
				key := uint64(th.Rand().Intn(1024))
				if th.Rand().Intn(2) == 0 {
					d.Insert(th, key, key)
				} else {
					d.Delete(th, key)
				}
			}
			var tracked, walked uint64
			for si := 0; si < d.Shards(); si++ {
				ss, it := d.ShardSize(th, si), uint64(d.ShardItems(th, si))
				if ss != it {
					t.Errorf("%s shard %d: size counter %d, structure walk %d", backend, si, ss, it)
				}
				tracked += ss
				walked += it
			}
			if got := d.TotalSize(th); got != walked {
				t.Errorf("%s: TotalSize %d, walked %d", backend, got, walked)
			}
			_ = tracked
		})
	}
}

// TestExactShardCounts checks non-power-of-two shard counts route within
// range and that a custom hash is honored.
func TestExactShardCounts(t *testing.T) {
	m := testMachine(1, 64)
	m.RunOne(func(th *tsx.Thread) {
		d := shard.NewData(th, shard.DataConfig{
			Shards:  5,
			Backend: shard.HashTable,
			Hash:    func(k uint64) uint64 { return k },
		})
		for k := uint64(0); k < 100; k++ {
			if got, want := d.ShardOf(k), int(k%5); got != want {
				t.Fatalf("identity hash: key %d routed to %d, want %d", k, got, want)
			}
		}
	})
}

// TestStoreStatsAggregate runs keyed and global sections and checks the
// store's core.Scheme stats surface counts both.
func TestStoreStatsAggregate(t *testing.T) {
	m := testMachine(1, 256)
	m.RunOne(func(th *tsx.Thread) {
		d := shard.NewData(th, shard.DataConfig{Shards: 4})
		st := shard.Bind(th, d, shard.StoreConfig{})
		st.Setup(th)
		for k := uint64(0); k < 20; k++ {
			st.RunKeyed(th, k, func() { d.Insert(th, k, 1) })
		}
		if n := st.Size(th); n != 20 {
			t.Fatalf("Size = %d, want 20", n)
		}
		total := st.TotalStats()
		// 20 keyed ops + 1 global (the Size).
		if total.Ops != 21 {
			t.Errorf("TotalStats.Ops = %d, want 21", total.Ops)
		}
		if got := st.Stats(th.ID); got.Ops != 21 {
			t.Errorf("Stats(%d).Ops = %d, want 21", th.ID, got.Ops)
		}
		if st.Name() != "Sharded4[HLE/MCS]" {
			t.Errorf("Name = %q", st.Name())
		}
	})
}

// TestGlobalSnapshotsAreConsistent runs writer threads doing keyed
// inserts (never deletes) while a reader thread takes cross-shard Size
// snapshots: every snapshot must be monotonically non-decreasing (a torn
// snapshot that misses an in-flight shard would go backwards relative to
// a later complete one is caught by the final exact check too).
func TestGlobalSnapshotsAreConsistent(t *testing.T) {
	m := testMachine(4, 4096)
	var d *shard.Data
	var st *shard.Store
	m.RunOne(func(th *tsx.Thread) {
		d = shard.NewData(th, shard.DataConfig{Shards: 8})
		st = shard.Bind(th, d, shard.StoreConfig{MkScheme: shard.SchemeMakerByName("HLE")})
	})
	var snaps []uint64
	inserted := make([]int, 4)
	m.Run(4, func(th *tsx.Thread) {
		st.Setup(th)
		if th.ID == 3 {
			for i := 0; i < 40; i++ {
				snaps = append(snaps, st.Size(th))
				th.Work(500)
			}
			return
		}
		for i := 0; i < 200; i++ {
			key := uint64(th.ID*1000 + i)
			var ok bool
			st.RunKeyed(th, key, func() { ok = d.Insert(th, key, 1) })
			if ok {
				inserted[th.ID]++
			}
		}
	})
	for i := 1; i < len(snaps); i++ {
		if snaps[i] < snaps[i-1] {
			t.Fatalf("snapshot went backwards: %d then %d (all: %v)", snaps[i-1], snaps[i], snaps)
		}
	}
	want := uint64(inserted[0] + inserted[1] + inserted[2])
	m.RunOne(func(th *tsx.Thread) {
		if got := d.TotalSize(th); got != want {
			t.Errorf("final TotalSize %d, want %d inserted", got, want)
		}
	})
}

// TestSchemeMakerByName checks the name registry and that per-shard
// instances are distinct.
func TestSchemeMakerByName(t *testing.T) {
	for _, name := range harness.SchemeNames() {
		if shard.SchemeMakerByName(name) == nil {
			t.Errorf("SchemeMakerByName(%q) = nil", name)
		}
	}
	if shard.SchemeMakerByName("nope") != nil {
		t.Error("unknown scheme name should return nil")
	}
	m := testMachine(1, 256)
	m.RunOne(func(th *tsx.Thread) {
		d := shard.NewData(th, shard.DataConfig{Shards: 2})
		st := shard.Bind(th, d, shard.StoreConfig{MkScheme: shard.SchemeMakerByName("Adaptive")})
		if st.Scheme(0) == st.Scheme(1) {
			t.Error("shards share one scheme instance")
		}
	})
}

// TestShardSchemesSelectTheirHardware: a scheme that selects its elision
// hardware in Setup (HLE-HWExt the Chapter 7 extension) gets it in every
// shard, through Store.Setup, on the plain machine every store runs on:
// on the same seed its run differs from plain HLE's.
func TestShardSchemesSelectTheirHardware(t *testing.T) {
	run := func(scheme string) tsx.Stats {
		tmpl := &harness.WarmTemplate{
			Machine: func() tsx.Config {
				cfg := tsx.DefaultConfig(4)
				cfg.Seed = 1
				cfg.MemWords = 256*32 + 1<<16
				return cfg
			}(),
			MkWorkload: func(th *tsx.Thread) harness.Workload {
				return traffic.New(th, shard.DataConfig{Shards: 2}, traffic.Spec{Keys: 64, Mix: harness.MixModerate})
			},
		}
		m, w := tmpl.Fork()
		var rs traffic.RoutedStore
		m.RunOne(func(th *tsx.Thread) {
			rs = traffic.Route(shard.Bind(th, w.(*traffic.Workload).Data(), shard.StoreConfig{
				MkScheme: shard.SchemeMakerByName(scheme),
			}))
		})
		res := harness.Run(m, rs, w, harness.Config{Threads: 4, CycleBudget: 60_000})
		if res.Ops.Ops == 0 {
			t.Fatalf("%s: no operations completed", scheme)
		}
		return res.TSX
	}
	if hle, ext := run("HLE"), run("HLE-HWExt"); hle == ext {
		t.Errorf("a 2-shard HLE-HWExt store ran exactly as an HLE store: %+v", ext)
	}
}

// TestHarnessRoutesOps runs a traffic workload under the harness with a
// RoutedStore and checks ops flowed to per-shard schemes (not the global
// path) and the structure stayed consistent.
func TestHarnessRoutesOps(t *testing.T) {
	tmpl := &harness.WarmTemplate{
		Machine: func() tsx.Config {
			cfg := tsx.DefaultConfig(4)
			cfg.Seed = 1
			cfg.MemWords = 512*32 + 1<<16
			return cfg
		}(),
		MkWorkload: func(th *tsx.Thread) harness.Workload {
			return traffic.New(th, shard.DataConfig{Shards: 4}, traffic.Spec{Keys: 256, Mix: harness.MixModerate, ScanPct: 2})
		},
	}
	m, w := tmpl.Fork()
	tw := w.(*traffic.Workload)
	var rs traffic.RoutedStore
	m.RunOne(func(th *tsx.Thread) {
		rs = traffic.Route(shard.Bind(th, tw.Data(), shard.StoreConfig{
			MkLock:   locks.MakerByName("MCS"),
			MkScheme: shard.SchemeMakerByName("HLE"),
		}))
	})
	res := harness.Run(m, rs, w, harness.Config{Threads: 4, CycleBudget: 60_000})
	if res.Ops.Ops == 0 {
		t.Fatal("no operations completed")
	}
	perShard := uint64(0)
	for si := 0; si < 4; si++ {
		perShard += rs.Scheme(si).TotalStats().Ops
	}
	if perShard == 0 {
		t.Fatal("no ops reached per-shard schemes: routing broken")
	}
	if rs.TotalStats().Ops != res.Ops.Ops {
		t.Errorf("store counted %d ops, harness %d", rs.TotalStats().Ops, res.Ops.Ops)
	}
	m.RunOne(func(th *tsx.Thread) {
		for si := 0; si < 4; si++ {
			if ss, it := tw.Data().ShardSize(th, si), uint64(tw.Data().ShardItems(th, si)); ss != it {
				t.Errorf("shard %d: size counter %d != structure %d", si, ss, it)
			}
		}
	})
}
