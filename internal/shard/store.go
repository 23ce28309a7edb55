package shard

import (
	"fmt"
	"slices"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/tsx"
)

// SchemeMaker builds shard si's scheme instance over its main lock. The
// maker is called once per shard at Bind time, so every shard gets its
// own scheme state — its own SCM auxiliary lock, its own adaptive
// controller and feed — and shards never share synchronization state.
type SchemeMaker func(t *tsx.Thread, main locks.Lock, si int) core.Scheme

// SchemeMakerByName returns a maker for a harness scheme name, built
// from the harness scheme table: each shard's auxiliary locks are
// allocated after its main lock, as harness.SchemeSpec.Build does. It
// returns nil for an unknown name.
func SchemeMakerByName(name string) SchemeMaker {
	if !slices.Contains(harness.SchemeNames(), name) {
		return nil
	}
	spec := harness.SchemeSpec{Scheme: name}
	return func(t *tsx.Thread, main locks.Lock, si int) core.Scheme {
		return spec.Assemble(main, spec.AuxLocks(t))
	}
}

// StoreConfig configures the synchronization half of a sharded store.
type StoreConfig struct {
	// MkLock builds each shard's main lock (default MCS, the paper's
	// representative HLE-compatible fair lock).
	MkLock locks.Maker
	// MkScheme builds each shard's scheme over its main lock (default
	// plain HLE).
	MkScheme SchemeMaker
}

// Store is the synchronization half of a sharded store: one lock and one
// scheme instance per shard of a Data, plus the cross-shard operation
// that takes every shard lock. A Store is built per experiment point
// (after a checkpoint fork), binding fresh scheme state to the shared
// warm Data image.
//
// Store implements core.Scheme — Run executes the cross-shard (global)
// section — and harness-style routing via RunKeyed, so the harness can
// dispatch each drawn operation to the shard its key hashes to.
type Store struct {
	data    *Data
	locks   []locks.Lock
	schemes []core.Scheme
	// global accumulates cross-shard (all-lock) operation stats; shard
	// schemes record their own.
	global core.SchemeStats
	name   string
}

// Bind builds per-shard locks and schemes over d. Lock and scheme lines
// are labeled with the owning shard's "sNN/" prefix, so abort heatmaps
// attribute lock-line conflicts to shards.
func Bind(t *tsx.Thread, d *Data, cfg StoreConfig) *Store {
	if cfg.MkLock == nil {
		cfg.MkLock = locks.MakerByName("MCS")
	}
	if cfg.MkScheme == nil {
		cfg.MkScheme = SchemeMakerByName("HLE")
	}
	s := &Store{data: d}
	m := t.Machine()
	for si := 0; si < d.Shards(); si++ {
		prev := m.SetLabelPrefix(ShardLabel(si) + "/")
		l := cfg.MkLock(t)
		s.locks = append(s.locks, l)
		s.schemes = append(s.schemes, cfg.MkScheme(t, l, si))
		m.SetLabelPrefix(prev)
	}
	s.name = fmt.Sprintf("Sharded%d[%s/%s]", d.Shards(), s.schemes[0].Name(), s.locks[0].Name())
	return s
}

// Data returns the structure half the store is bound to.
func (s *Store) Data() *Data { return s.data }

// Scheme returns shard si's scheme instance (tests and stats readers).
func (s *Store) Scheme(si int) core.Scheme { return s.schemes[si] }

// Name implements core.Scheme: "Sharded16[HLE/MCS]".
func (s *Store) Name() string { return s.name }

// Setup implements core.Scheme: it prepares every shard's lock and scheme
// for thread t. Per-thread lock state (queue nodes) allocated here is
// labeled with the shard's prefix too.
func (s *Store) Setup(t *tsx.Thread) {
	m := t.Machine()
	for si, sch := range s.schemes {
		prev := m.SetLabelPrefix(ShardLabel(si) + "/")
		sch.Setup(t)
		m.SetLabelPrefix(prev)
	}
}

// RunKeyed executes cs as a critical section of key's shard, under that
// shard's scheme. This is the hot path: operations on different shards
// synchronize on different locks and proceed fully in parallel — no
// speculation needed — while operations within one shard contend under
// whatever scheme the shard hosts.
func (s *Store) RunKeyed(t *tsx.Thread, key uint64, cs func()) core.Result {
	return s.schemes[s.data.ShardOf(key)].Run(t, cs)
}

// RunGlobal executes cs while really holding every shard lock — the
// cross-shard operation (consistent Size, snapshots). Locks are acquired
// in ascending shard order, so concurrent globals never deadlock, and a
// keyed operation holds at most its own shard's lock, so no cycle can
// involve it. The acquisitions are non-speculative: taking shard si's
// lock for real aborts every speculation subscribed to it, which is
// exactly the mutual exclusion a consistent snapshot needs.
func (s *Store) RunGlobal(t *tsx.Thread, cs func()) core.Result {
	for _, l := range s.locks {
		l.Acquire(t)
	}
	t.MarkSerial(true)
	cs()
	t.MarkSerial(false)
	for i := len(s.locks) - 1; i >= 0; i-- {
		s.locks[i].Release(t)
	}
	r := core.Result{Attempts: 1, Spec: false}
	s.global.Record(t.ID, r)
	return r
}

// Run implements core.Scheme by executing the cross-shard section;
// harness workloads route keyed operations through RunKeyed (see
// harness.OpRouter).
func (s *Store) Run(t *tsx.Thread, cs func()) core.Result {
	return s.RunGlobal(t, cs)
}

// Size returns a consistent total element count, taking every shard lock.
func (s *Store) Size(t *tsx.Thread) uint64 {
	var n uint64
	s.RunGlobal(t, func() { n = s.data.TotalSize(t) })
	return n
}

// Stats implements core.Scheme: thread t's operations across all shards
// plus its cross-shard operations.
func (s *Store) Stats(threadID int) core.OpStats {
	total := s.global.Stats(threadID)
	for _, sch := range s.schemes {
		total.Add(sch.Stats(threadID))
	}
	return total
}

// TotalStats implements core.Scheme.
func (s *Store) TotalStats() core.OpStats {
	total := s.global.TotalStats()
	for _, sch := range s.schemes {
		total.Add(sch.TotalStats())
	}
	return total
}
