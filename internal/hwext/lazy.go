package hwext

import "hle/internal/tsx"

// This file packages the simulator variants for the two lazy-subscription
// papers referenced from PAPERS.md alongside the Chapter 7 extension:
// Dice et al.'s "Hardware extensions to make lazy subscription safe"
// (the deliberately-naive commit pipeline) and the FORTH limited
// read/write-set HTM design (asymmetric set capacities). As with HWExt
// itself, the mechanisms live in internal/tsx; these helpers select them
// on a machine configuration. The FIXED lazy pipeline needs no helper: it
// is the sound hardware, selected per thread by the lazy schemes' Setup.

// EnableLazyNaive returns cfg with NAIVE lazy subscription: the lock
// check runs after the drain and dooms arriving during the commit window
// are ignored — both Dice et al. fixes off. Unsafe by construction; it
// exists so internal/explore can reproduce the hazard counterexamples.
// Never use it in experiments.
func EnableLazyNaive(cfg tsx.Config) tsx.Config {
	cfg.Unsound = tsx.UnsoundLazyNaive
	return cfg
}

// LimitSets returns cfg with FORTH-style asymmetric transactional set
// capacities: readLines of precisely-tracked read set (no imprecise
// overflow tier — reads past the limit abort) and writeLines of write
// set. The design point trades the big imprecise read tracker for a
// small exact one, which moves capacity aborts from writes to reads and
// changes which hazards lazy subscription's savings hide behind.
func LimitSets(cfg tsx.Config, readLines, writeLines int) tsx.Config {
	cfg.L1ReadLines = readLines
	cfg.ReadSetLines = readLines
	cfg.WriteSetLines = writeLines
	return cfg
}
