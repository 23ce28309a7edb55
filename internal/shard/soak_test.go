package shard_test

import (
	"fmt"
	"testing"

	"hle/internal/check"
	"hle/internal/harness"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

// soakCell is one sharded-soak configuration.
type soakCell struct {
	backend shard.Backend
	scheme  string
	spec    traffic.Spec
}

func (c soakCell) String() string {
	return fmt.Sprintf("%s/%s/%s", c.backend, c.scheme, c.spec)
}

// TestShardSoakMatrix storms the sharded store and checks the strongest
// properties we can state about it: every shard's history is serializable
// (per-shard ticket order replays exactly against a sequential model),
// the cross-shard invariant holds (striped size counters == structure
// walk == model, per shard and in total), and no liveness watchdog trips
// while hot-key storms concentrate the traffic. Under -short only a
// reduced matrix runs.
func TestShardSoakMatrix(t *testing.T) {
	storm := &traffic.Storm{EpochCycles: 30_000, HotKeys: 4, HotPct: 60}
	tenantB := harness.MixExtensive
	cells := []soakCell{
		{shard.RBTree, "HLE", traffic.Spec{Keys: 128, Mix: harness.MixModerate, ZipfS: 1.1, Storm: storm, ScanPct: 1}},
		{shard.HashTable, "HLE-SCM", traffic.Spec{Keys: 128, Mix: harness.MixExtensive, Storm: storm, TenantMix: &tenantB}},
		{shard.RBTree, "Adaptive", traffic.Spec{Keys: 128, Mix: harness.MixExtensive, ZipfS: 1.3, Storm: storm}},
	}
	if !testing.Short() {
		ramp := &traffic.Ramp{PeriodCycles: 60_000, TroughThink: 300}
		cells = append(cells,
			soakCell{shard.RBTree, "Standard", traffic.Spec{Keys: 128, Mix: harness.MixExtensive, ZipfS: 1.3, Storm: storm, ScanPct: 1}},
			soakCell{shard.HashTable, "HLE", traffic.Spec{Keys: 256, Mix: harness.MixModerate, Ramp: ramp, ScanPct: 2}},
			soakCell{shard.RBTree, "HLE-SCM", traffic.Spec{Keys: 128, Mix: harness.MixExtensive, ZipfS: 1.5, Storm: &traffic.Storm{EpochCycles: 15_000, HotKeys: 2, HotPct: 80}}},
			soakCell{shard.HashTable, "Adaptive", traffic.Spec{Keys: 256, Mix: harness.MixModerate, Storm: storm, TenantMix: &tenantB, ScanPct: 1}},
		)
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.String(), func(t *testing.T) { runShardSoak(t, cell) })
	}
}

func runShardSoak(t *testing.T, cell soakCell) {
	const (
		threads = 8
		shards  = 8
		budget  = 120_000
	)
	cfg := tsx.DefaultConfig(threads)
	cfg.Seed = 7
	cfg.MemWords = cell.spec.Keys*64 + 1<<16
	m := tsx.NewMachine(cfg)

	var (
		w    *traffic.Workload
		st   *shard.Store
		recs []*check.Recorder
	)
	m.RunOne(func(th *tsx.Thread) {
		w = traffic.New(th, shard.DataConfig{Shards: shards, Backend: cell.backend}, cell.spec)
		w.Populate(th)
		st = shard.Bind(th, w.Data(), shard.StoreConfig{MkScheme: shard.SchemeMakerByName(cell.scheme)})
		for si := 0; si < shards; si++ {
			recs = append(recs, check.NewRecorder(th))
		}
	})
	d := w.Data()

	// Per-shard sequential witnesses start from the populated state.
	models := make([]map[uint64]uint64, shards)
	m.RunOne(func(th *tsx.Thread) {
		for si := range models {
			models[si] = make(map[uint64]uint64)
		}
		for k := uint64(0); k < uint64(w.Domain()); k++ {
			if v, ok := d.Lookup(th, k); ok {
				models[d.ShardOf(k)][k] = v
			}
		}
	})

	wd := harness.NewWatchdog(harness.WatchdogConfig{
		LivelockWindow:   2_000_000,
		StarvationWindow: 1_000_000,
		Context:          cell.String(),
	}, threads)
	m.SetWatchdog(wd.Check)

	b01 := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
	}
	// scanTotals records every cross-shard snapshot: counter sum and
	// structure walk taken inside the same all-lock section must agree.
	scans := 0
	threadsOut := m.Run(threads, func(th *tsx.Thread) {
		st.Setup(th)
		for th.Clock() < budget {
			op := w.NextOp(th)
			if op.Kind == harness.OpScan {
				var tracked, walked uint64
				st.RunGlobal(th, func() {
					for si := 0; si < shards; si++ {
						tracked += d.ShardSize(th, si)
						walked += uint64(d.ShardItems(th, si))
					}
				})
				if tracked != walked {
					t.Errorf("scan: counters %d != structures %d", tracked, walked)
				}
				scans++
				wd.NoteOp(th.ID, th.Clock())
				continue
			}
			si := d.ShardOf(op.Key)
			var seq, result uint64
			kind := "lookup"
			st.Scheme(si).Run(th, func() {
				switch op.Kind {
				case harness.OpInsert:
					kind = "insert"
					result = b01(d.Insert(th, op.Key, op.Key+1))
				case harness.OpDelete:
					kind = "delete"
					result = b01(d.Delete(th, op.Key))
				default:
					v, ok := d.Lookup(th, op.Key)
					result = v<<1 | b01(ok)
				}
				seq = recs[si].Ticket(th)
			})
			recs[si].Record(check.Op{Seq: seq, Thread: th.ID, Kind: kind, Key: op.Key, Result: result})
			wd.NoteOp(th.ID, th.Clock())
		}
		wd.NoteDone(th.ID)
	})
	m.SetWatchdog(nil)

	if m.Stopped() {
		t.Fatalf("watchdog tripped: %v", wd.Failure(m, threadsOut))
	}

	totalOps := scans
	for si := 0; si < shards; si++ {
		si := si
		totalOps += recs[si].Len()
		model := models[si]
		if err := recs[si].Verify(func(kind string, key uint64) uint64 {
			switch kind {
			case "insert":
				// Insert updates an existing key's value too (and still
				// returns false) — the witness must mirror that exactly.
				_, had := model[key]
				model[key] = key + 1
				return b01(!had)
			case "delete":
				_, had := model[key]
				delete(model, key)
				return b01(had)
			default:
				v, ok := model[key]
				return v<<1 | b01(ok)
			}
		}); err != nil {
			t.Errorf("shard %d not serializable: %v", si, err)
		}
	}
	if totalOps == 0 {
		t.Fatal("soak completed no operations")
	}

	// Cross-shard invariant at quiescence: size counters == structure
	// walk == the per-shard model each serializable history ended in.
	m.RunOne(func(th *tsx.Thread) {
		var total uint64
		for si := 0; si < shards; si++ {
			tracked := d.ShardSize(th, si)
			walked := uint64(d.ShardItems(th, si))
			if tracked != walked {
				t.Errorf("shard %d: size counter %d != structure %d", si, tracked, walked)
			}
			if want := uint64(len(models[si])); tracked != want {
				t.Errorf("shard %d: size %d != model %d", si, tracked, want)
			}
			total += tracked
		}
		if got := d.TotalSize(th); got != total {
			t.Errorf("TotalSize %d != shard sum %d", got, total)
		}
	})
}
