package hle

import (
	"fmt"

	"hle/internal/shard"
)

// ShardedStore is an N-shard keyed map on the simulated machine: keys
// hash to shards, each shard is an independent data structure guarded by
// its own elidable lock and scheme instance, and cross-shard operations
// (Size) take every shard lock in order. It is the package's service-level
// building block: sharding removes cross-key contention structurally,
// while the per-shard scheme decides how contention inside a shard —
// a hot key, a skewed tenant — is handled (plain locking, HLE, SCM, or
// the adaptive controller, per WithShardScheme).
type ShardedStore struct {
	data *shard.Data
	st   *shard.Store
}

// shardCfg accumulates Sharded options.
type shardCfg struct {
	dcfg shard.DataConfig
	scfg shard.StoreConfig
	// schemeOpt names the scheme-selecting option already applied, so a
	// second selector (WithShardScheme + WithShardSchemeName) panics as
	// contradictory instead of silently last-writer-wins.
	schemeOpt    string
	placement    Placement
	placementSet bool
}

func shardOption(name string, fn func(*shardCfg)) ShardOption {
	return Option{name: name, targets: tSharded, shd: fn}
}

// setScheme installs a scheme maker, rejecting a second selector.
func (c *shardCfg) setScheme(opt string, mk shard.SchemeMaker) {
	if c.schemeOpt != "" {
		panic("hle: Sharded: " + opt + " contradicts " + c.schemeOpt +
			": at most one scheme selector per store")
	}
	c.schemeOpt = opt
	c.scfg.MkScheme = mk
}

// WithShardHashTable backs each shard with a hash table of the given
// bucket count (0 selects the default) instead of a red-black tree.
// Applies to Sharded.
func WithShardHashTable(buckets int) ShardOption {
	return shardOption("WithShardHashTable", func(c *shardCfg) {
		c.dcfg.Backend = shard.HashTable
		c.dcfg.Buckets = buckets
	})
}

// WithShardHash overrides the key→shard routing hash. The default is a
// splitmix finalizer; tests use identity hashes for exact placement.
// Applies to Sharded.
func WithShardHash(h func(key uint64) uint64) ShardOption {
	return shardOption("WithShardHash", func(c *shardCfg) { c.dcfg.Hash = h })
}

// WithShardStripes sets the per-shard size-counter stripe count (each
// stripe lives on its own cache line, so concurrent updates within a
// shard do not serialize on one counter line). Applies to Sharded.
func WithShardStripes(n int) ShardOption {
	return shardOption("WithShardStripes", func(c *shardCfg) { c.dcfg.SizeStripes = n })
}

// WithShardLock overrides each shard's main lock constructor (default
// MCS, the paper's representative HLE-compatible fair lock). Applies to
// Sharded.
func WithShardLock(mk func(t *Thread) Lock) ShardOption {
	return shardOption("WithShardLock", func(c *shardCfg) { c.scfg.MkLock = mk })
}

// WithShardScheme overrides each shard's scheme constructor. The maker
// runs once per shard, receiving the shard's main lock and index, so
// every shard gets private scheme state — its own SCM auxiliary lock,
// its own adaptive controller:
//
//	hle.Sharded(t, 16, hle.WithShardScheme(func(t *hle.Thread, main hle.Lock, si int) hle.Scheme {
//		return hle.Adaptive(main, hle.WithSCM(hle.NewMCSLock(t)))
//	}))
//
// Applies to Sharded; contradicts WithShardSchemeName.
func WithShardScheme(mk func(t *Thread, main Lock, shard int) Scheme) ShardOption {
	return shardOption("WithShardScheme", func(c *shardCfg) {
		c.setScheme("WithShardScheme", mk)
	})
}

// WithShardSchemeName selects each shard's scheme by harness name
// (Standard, HLE, RTM-LE, HLE-SCM, HLE-HWExt, Adaptive, ...); unknown
// names panic at construction. Applies to Sharded; contradicts
// WithShardScheme.
func WithShardSchemeName(name string) ShardOption {
	mk := shard.SchemeMakerByName(name)
	if mk == nil {
		panic("hle: Sharded: unknown scheme name " + name)
	}
	return shardOption("WithShardSchemeName", func(c *shardCfg) {
		c.setScheme("WithShardSchemeName("+name+")", mk)
	})
}

// Sharded builds an N-shard store on t's machine (call inside System.Init,
// like every constructor). Default shape: red-black tree shards under MCS
// locks with plain HLE per shard. WithPlacement lays the store's
// structures out under a placement policy for the duration of
// construction, restoring the machine's policy afterwards.
func Sharded(t *Thread, shards int, opts ...ShardOption) *ShardedStore {
	if shards <= 0 {
		panic(fmt.Sprintf("hle: Sharded: shard count must be positive, got %d", shards))
	}
	c := shardCfg{dcfg: shard.DataConfig{Shards: shards}}
	for _, o := range opts {
		o.use("Sharded", tSharded)
		o.shd(&c)
	}
	if c.placementSet {
		prev := t.Memory().SetPlacement(c.placement)
		defer t.Memory().SetPlacement(prev)
	}
	d := shard.NewData(t, c.dcfg)
	return &ShardedStore{data: d, st: shard.Bind(t, d, c.scfg)}
}

// Setup prepares every shard's lock and scheme for thread t; each
// measuring thread calls it once before operating.
func (s *ShardedStore) Setup(t *Thread) { s.st.Setup(t) }

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return s.data.Shards() }

// ShardOf returns the shard index key routes to.
func (s *ShardedStore) ShardOf(key uint64) int { return s.data.ShardOf(key) }

// Get returns the value stored under key, synchronizing only on key's
// shard.
func (s *ShardedStore) Get(t *Thread, key uint64) (val uint64, ok bool) {
	s.st.RunKeyed(t, key, func() { val, ok = s.data.Lookup(t, key) })
	return val, ok
}

// Put stores val under key, reporting whether the key was absent (an
// existing key's value is updated in place).
func (s *ShardedStore) Put(t *Thread, key, val uint64) (inserted bool) {
	s.st.RunKeyed(t, key, func() { inserted = s.data.Insert(t, key, val) })
	return inserted
}

// Delete removes key, reporting whether it was present.
func (s *ShardedStore) Delete(t *Thread, key uint64) (deleted bool) {
	s.st.RunKeyed(t, key, func() { deleted = s.data.Delete(t, key) })
	return deleted
}

// Size returns a consistent total element count — the cross-shard
// operation: it really acquires every shard lock (in ascending order, so
// concurrent Sizes cannot deadlock) and sums the striped per-shard
// counters under them.
func (s *ShardedStore) Size(t *Thread) uint64 { return s.st.Size(t) }

// Stats returns thread t's operation statistics across all shards plus
// its cross-shard operations.
func (s *ShardedStore) Stats(threadID int) OpStats { return s.st.Stats(threadID) }

// TotalStats aggregates every thread's statistics.
func (s *ShardedStore) TotalStats() OpStats { return s.st.TotalStats() }
