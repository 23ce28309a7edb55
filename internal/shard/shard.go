// Package shard implements an N-shard key-value store over the existing
// data structures: each shard is its own red-black tree or hash table in
// simulated memory, guarded by its own lock and its own elision-scheme
// instance. The package stages the contest ROADMAP item 1 names — static
// partitioning (sharding) against the paper's single coarse elided lock.
// Under uniform load, sharding's partitioning is unbeatable: disjoint
// shards never conflict, speculatively or otherwise. Under Zipfian skew,
// the hot keys concentrate in one shard and re-create the single-lock
// bottleneck, which is exactly where per-shard elision, SCM, or the
// adaptive controller earn their keep.
//
// The package splits along the checkpoint-fork boundary the harness uses:
//
//   - Data is the structure half — shards, per-shard size counters, the
//     routing hash. It lives entirely in simulated memory, so it is
//     captured by machine checkpoints and shared by every fork of a warm
//     template.
//   - Store (store.go) is the synchronization half — per-shard locks and
//     scheme instances. It is built per experiment point, after the fork,
//     so sibling points can measure different schemes over one image.
package shard

import (
	"fmt"

	"hle/internal/hashtable"
	"hle/internal/mem"
	"hle/internal/rbtree"
	"hle/internal/tsx"
)

// Backend selects the per-shard data structure.
type Backend uint8

// The shard backends.
const (
	// RBTree shards are red-black trees: long critical sections whose
	// conflict locality depends on tree size (Chapters 3 and 5).
	RBTree Backend = iota
	// HashTable shards are chained hash tables: uniformly short critical
	// sections (§5.2).
	HashTable
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case RBTree:
		return "rbtree"
	case HashTable:
		return "hashtable"
	}
	return fmt.Sprintf("Backend(%d)", b)
}

// DataConfig configures the structure half of a sharded store.
type DataConfig struct {
	// Shards is the shard count (default 8). Any positive count works;
	// routing is hash(key) mod Shards.
	Shards int
	// Backend selects the per-shard structure (default RBTree).
	Backend Backend
	// Buckets is the per-shard bucket count for HashTable shards
	// (default 64; hashtable.New rounds it up to a power of two).
	Buckets int
	// SizeStripes is the number of per-shard size-counter stripes
	// (default 8). Each stripe occupies its own cache line and threads
	// update stripe ID mod SizeStripes, so size maintenance does not put
	// a shared hot line inside every update's speculation — the
	// shared-cursor anti-pattern the ROADMAP's WAL remark describes.
	SizeStripes int
	// Hash routes keys to shards (shard = Hash(key) mod Shards). It must
	// be a pure function. The default is a splitmix64 finalizer, so keys
	// spread evenly whatever their structure.
	Hash func(uint64) uint64
}

func (cfg DataConfig) withDefaults() DataConfig {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 0 {
		panic(fmt.Sprintf("shard: bad shard count %d", cfg.Shards))
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 64
	}
	if cfg.SizeStripes == 0 {
		cfg.SizeStripes = 8
	}
	if cfg.Hash == nil {
		cfg.Hash = mixHash
	}
	return cfg
}

// mixHash is the default routing hash: the splitmix64 finalizer, the same
// mixer the hash table and seed derivation use.
func mixHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Data is the structure half of a sharded store: the shards themselves
// plus striped per-shard size counters, all in simulated memory. One Data
// value serves every fork of a populated machine (its Go-side state is
// immutable after construction, like a harness Workload after Populate).
//
// The raw operations (Lookup/Insert/Delete) perform no synchronization:
// callers run them inside a per-shard critical section (Store.RunKeyed)
// or during single-threaded population.
type Data struct {
	cfg    DataConfig
	trees  []*rbtree.Tree
	tables []*hashtable.Table
	// stripes[si*SizeStripes+j] is shard si's j-th size-counter line.
	stripes []mem.Addr
}

// NewData allocates the shards. Each shard's lines are labeled with an
// "sNN/" prefix so profile heatmaps attribute conflicts to shards.
func NewData(t *tsx.Thread, cfg DataConfig) *Data {
	cfg = cfg.withDefaults()
	d := &Data{cfg: cfg}
	m := t.Machine()
	for si := 0; si < cfg.Shards; si++ {
		prev := m.SetLabelPrefix(ShardLabel(si) + "/")
		switch cfg.Backend {
		case RBTree:
			d.trees = append(d.trees, rbtree.New(t))
		case HashTable:
			d.tables = append(d.tables, hashtable.New(t, cfg.Buckets))
		default:
			m.SetLabelPrefix(prev)
			panic("shard: unknown backend " + cfg.Backend.String())
		}
		for j := 0; j < cfg.SizeStripes; j++ {
			a := t.AllocLines(1)
			t.LabelLines(a, 1, "size")
			d.stripes = append(d.stripes, a)
		}
		m.SetLabelPrefix(prev)
	}
	return d
}

// ShardLabel is the canonical shard name used in line labels and
// heatmaps: "s00", "s01", ...
func ShardLabel(si int) string { return fmt.Sprintf("s%02d", si) }

// Config returns the configuration (with defaults applied).
func (d *Data) Config() DataConfig { return d.cfg }

// Shards returns the shard count.
func (d *Data) Shards() int { return d.cfg.Shards }

// ShardOf routes a key to its shard.
func (d *Data) ShardOf(key uint64) int {
	return int(d.cfg.Hash(key) % uint64(d.cfg.Shards))
}

// stripe returns the size-counter cell thread t updates in shard si.
func (d *Data) stripe(t *tsx.Thread, si int) mem.Addr {
	return d.stripes[si*d.cfg.SizeStripes+t.ID%d.cfg.SizeStripes]
}

// Lookup returns the value stored under key. Unsynchronized: run it
// inside key's shard critical section.
func (d *Data) Lookup(t *tsx.Thread, key uint64) (uint64, bool) {
	si := d.ShardOf(key)
	if d.cfg.Backend == RBTree {
		return d.trees[si].Lookup(t, key)
	}
	return d.tables[si].Lookup(t, key)
}

// Contains reports whether key is present. Unsynchronized.
func (d *Data) Contains(t *tsx.Thread, key uint64) bool {
	_, ok := d.Lookup(t, key)
	return ok
}

// Insert adds key→val, reporting whether the key was new, and maintains
// the shard's size counter. Unsynchronized: run it inside key's shard
// critical section (the counter update then commits or rolls back with
// the structural change).
func (d *Data) Insert(t *tsx.Thread, key, val uint64) bool {
	si := d.ShardOf(key)
	var ok bool
	if d.cfg.Backend == RBTree {
		ok = d.trees[si].Insert(t, key, val)
	} else {
		ok = d.tables[si].Insert(t, key, val)
	}
	if ok {
		c := d.stripe(t, si)
		t.Store(c, t.Load(c)+1)
	}
	return ok
}

// Delete removes key, reporting whether it was present, and maintains the
// shard's size counter. Unsynchronized.
func (d *Data) Delete(t *tsx.Thread, key uint64) bool {
	si := d.ShardOf(key)
	var ok bool
	if d.cfg.Backend == RBTree {
		ok = d.trees[si].Delete(t, key)
	} else {
		ok = d.tables[si].Delete(t, key)
	}
	if ok {
		c := d.stripe(t, si)
		t.Store(c, t.Load(c)-1)
	}
	return ok
}

// ShardSize sums shard si's size stripes. Unsynchronized: for a stable
// answer, run it inside a critical section covering the shard (or all
// shards, via Store.RunGlobal).
func (d *Data) ShardSize(t *tsx.Thread, si int) uint64 {
	var n uint64
	for j := 0; j < d.cfg.SizeStripes; j++ {
		n += t.Load(d.stripes[si*d.cfg.SizeStripes+j])
	}
	return n
}

// TotalSize sums every shard's size counters. Unsynchronized: a
// consistent snapshot needs all shard locks (Store.RunGlobal).
func (d *Data) TotalSize(t *tsx.Thread) uint64 {
	var n uint64
	for si := 0; si < d.cfg.Shards; si++ {
		n += d.ShardSize(t, si)
	}
	return n
}

// Populate fills the store with count distinct random keys drawn from
// [0, domain), single-threaded (no locking). It panics if domain < count.
func (d *Data) Populate(t *tsx.Thread, count, domain int) {
	if domain < count {
		panic(fmt.Sprintf("shard: domain %d < count %d", domain, count))
	}
	filled := 0
	for filled < count {
		if d.Insert(t, uint64(t.Rand().Intn(domain)), 1) {
			filled++
		}
	}
}
