package harness_test

import (
	"reflect"
	"testing"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/shard"
	"hle/internal/traffic"
	"hle/internal/tsx"
)

// churnedTree is an rbtree workload whose fill also deletes and re-inserts
// keys, so the image holds blocks that were freed and handed out again:
// their zeroing stores write over old node contents.
type churnedTree struct{ *harness.RBTree }

func (w churnedTree) Populate(t *tsx.Thread) {
	w.RBTree.Populate(t)
	for i := 0; i < w.Size; i++ {
		key := uint64(t.Rand().Intn(2 * w.Size))
		if i%2 == 0 {
			w.Exec(t, harness.Op{Kind: harness.OpDelete, Key: key})
		} else {
			w.Exec(t, harness.Op{Kind: harness.OpInsert, Key: key})
		}
	}
}

// TestFillMatchesRunOne builds every kind of warm-template image twice —
// once through WarmTemplate.Fork, whose fill runs outside simulated time
// (tsx.Machine.Fill), and once by populating in a timed RunOne — and
// requires identical checkpoints (configuration, memory words, line
// metadata, allocator and placement state, line labels) and an identical
// Result for one point forked from each.
func TestFillMatchesRunOne(t *testing.T) {
	cfg := func(size int, layout mem.Layout) tsx.Config {
		c := tsx.DefaultConfig(4)
		c.Seed = 3
		c.MemWords = size*64 + 1<<16
		c.Layout = layout
		return c
	}
	treeScheme := func(th *tsx.Thread, _ harness.Workload) core.Scheme {
		return harness.SchemeSpec{Scheme: "HLE", Lock: "TTAS"}.Build(th)
	}
	storeScheme := func(th *tsx.Thread, w harness.Workload) core.Scheme {
		return traffic.Route(shard.Bind(th, w.(*traffic.Workload).Data(), shard.StoreConfig{}))
	}
	store := func(shards int) func(*tsx.Thread) harness.Workload {
		return func(th *tsx.Thread) harness.Workload {
			return traffic.New(th, shard.DataConfig{Shards: shards, Backend: shard.RBTree},
				traffic.Spec{Keys: 256, Mix: harness.MixModerate, ZipfS: 1.1})
		}
	}
	tree := func(size int) func(*tsx.Thread) harness.Workload {
		return func(th *tsx.Thread) harness.Workload { return harness.NewRBTree(th, size, harness.MixModerate) }
	}
	cases := []struct {
		name     string
		machine  tsx.Config
		mk       func(*tsx.Thread) harness.Workload
		mkScheme func(*tsx.Thread, harness.Workload) core.Scheme
	}{
		{"rbtree-128", cfg(128, mem.Layout{}), tree(128), treeScheme},
		{"rbtree-32768", cfg(32768, mem.Layout{}), tree(32768), treeScheme},
		{"rbtree-128-colored", cfg(128, mem.Layout{Placement: mem.Colored}), tree(128), treeScheme},
		{"rbtree-churned", cfg(256, mem.Layout{}), func(th *tsx.Thread) harness.Workload {
			return churnedTree{harness.NewRBTree(th, 256, harness.MixModerate)}
		}, treeScheme},
		{"hashtable-256", cfg(256, mem.Layout{}), func(th *tsx.Thread) harness.Workload {
			return harness.NewHashTable(th, 256, harness.MixModerate)
		}, treeScheme},
		{"store-1-shard", cfg(1024, mem.Layout{}), store(1), storeScheme},
		{"store-8-shards", cfg(1024, mem.Layout{}), store(8), storeScheme},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wt := &harness.WarmTemplate{Machine: c.machine, MkWorkload: c.mk}
			filled, fw := wt.Fork()

			timed := tsx.NewMachine(c.machine)
			var tw harness.Workload
			th := timed.RunOne(func(th *tsx.Thread) {
				tw = c.mk(th)
				tw.Populate(th)
			})
			if th.Clock() == 0 {
				t.Fatal("the timed reference fill charged no cycles")
			}
			ref := tsx.FromCheckpoint(timed.Checkpoint())
			timed.Release()

			if !reflect.DeepEqual(filled.Checkpoint(), ref.Checkpoint()) {
				t.Fatal("Fill built a different image than RunOne")
			}
			point := func(m *tsx.Machine, w harness.Workload) harness.Result {
				m.Reseed(harness.DeriveSeed(3, 1))
				var s core.Scheme
				m.RunOne(func(th *tsx.Thread) { s = c.mkScheme(th, w) })
				res := harness.Run(m, s, w, harness.Config{Threads: 4, CycleBudget: 60_000})
				m.Release()
				return res
			}
			got, want := point(filled, fw), point(ref, tw)
			if got.Ops.Ops == 0 {
				t.Fatal("the forked point completed no operations")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("point on the Fill image:\n%+v\npoint on the RunOne image:\n%+v", got, want)
			}
		})
	}
}
