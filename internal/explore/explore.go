// Package explore is a bounded stateless model checker for the simulated
// machine: it enumerates thread interleavings of small configurations
// (2-3 threads executing 2-3 critical sections each) by replaying schedule
// prefixes through the scheduler's strategy hook (sim.Strategy) and
// branching at every grant, and checks every execution for the properties
// the paper proves — serializability, mutual exclusion, post-release
// lock-word restoration (Theorems 1-2), snapshot consistency (Lemma 1) —
// plus scheme progress bounds.
//
// The search is breadth-first over schedule prefixes, so the first
// violation found is a minimal-length counterexample, and it is replayed
// deterministically: a reported schedule reproduces the violation exactly.
// Three prunings keep the state space tractable:
//
//   - A state-fingerprint cache (the machine-fingerprint idiom of the
//     engine's golden tests: memory words, line metadata, per-thread
//     clocks, statistics and in-flight transaction state) collapses
//     commuting "diamond" interleavings, which dominate the raw schedule
//     count. Per-thread clocks are pure functions of each thread's local
//     history, so genuinely equivalent interleavings really do collide.
//   - Sleep sets (Godefroid) skip re-exploring a step that an explored
//     sibling already covers, unless an intervening dependent step could
//     distinguish the orders. Dependency is judged conservatively from
//     per-grant access footprints plus transactional read/write sets, with
//     transaction-boundary grants treated as dependent with everything.
//     Combined with the fingerprint cache the standard soundness fix
//     applies: the cache stores the set of procs expanded from each state,
//     and a revisit with new allowed procs re-expands just those.
//   - A stutter bound caps each thread's write-free grants between
//     state-changing (write or transaction-boundary) grants by anyone:
//     unbounded spin loops (a waiter polling a held lock) otherwise make
//     the schedule tree infinite. Re-polling unchanged shared state is
//     idempotent and straight-line code never runs that many write-free
//     steps between writes, so the bound only cuts polling loops — and
//     when every unfinished thread is capped at once, nothing can ever
//     change again, which the explorer reports as deadlock/livelock.
//
// Exploration is bounded — by depth, by a solo-execution grant budget, and
// by a replay budget — so its guarantee is exhaustiveness up to those
// bounds, reported alongside the counts. Every frontier wave fans out
// across host workers (harness.ParallelFor); dedup and enqueueing happen
// sequentially in declaration order afterwards, so the explorer's output
// is byte-identical at any parallelism.
package explore

import (
	"fmt"
	"strings"

	"hle/internal/harness"
)

// Search bounds. Exploration is exhaustive up to these; what they cut is
// counted as truncated or reported as a progress violation.
const (
	// maxDepth bounds the number of scheduling decisions per schedule;
	// deeper frontiers are counted as truncated.
	maxDepth = 600
	// soloBound bounds the large scheduler slices (2^20 cycles each)
	// granted to a sole remaining thread to finish; exceeding it is
	// reported as a progress violation, since with every other thread
	// finished a correct scheme always terminates. The bound clears the
	// engine's longest legitimate solo gap: the Chapter 7 suspend-on-miss
	// loop waits up to 2^20 steps of Costs.Wait (20 cycles, so ~2.1e7
	// cycles total) before its spurious-abort escape hatch fires, which an
	// elided thread needs when its recorded lock word can never recur
	// (e.g. a queue-lock tail captured while a real holder was enqueued).
	soloBound = 24
	// stutterBound caps the write-free grants a thread may take between
	// state-changing (write or transaction-boundary) grants by anyone.
	// Re-polling unchanged shared state is idempotent, so the cap only
	// cuts spin loops — and when every unfinished thread is capped at
	// once, nothing can ever change again: that is reported as a progress
	// violation (deadlock/livelock).
	stutterBound = 4
	// attemptsBound flags any single operation taking more than this many
	// execution attempts as a progress violation (the paper's schemes
	// bound retries at 10 before falling back to the lock).
	attemptsBound = 32
	// cacheBytes caps the banked-outcome cache's memory. Outcomes that do
	// not fit are not banked — the node replays from scratch instead. The
	// quick battery peaks near 1 MB and the full one near 12 MB.
	cacheBytes = 64 << 20
)

// Config describes one exploration: a scheme/lock pair, a thread and
// per-thread operation count, and the replay budget. Zero fields select
// defaults.
type Config struct {
	// Scheme is a harness scheme name (see harness.SchemeSpec); NoLock is
	// not explorable (it has no mutual-exclusion obligation to check).
	Scheme string
	// Lock is a locks.MakerByName name.
	Lock string
	// Threads and Ops set the configuration size: Threads threads each
	// run Ops critical sections.
	Threads int
	Ops     int

	// Mutant, when non-empty, replaces part of the configuration with a
	// deliberately broken variant (see Mutants): the mutation tests that
	// prove the checker's teeth.
	Mutant string

	// MaxReplays bounds the total replays (default 200000); exhausting it
	// marks the result truncated.
	MaxReplays int

	// ChainDepth is how many frontiers past its own node one replay may
	// keep executing, banking each extra frontier's outcome for the wave
	// that will need it (default 2, the empirical sweet spot — deeper
	// chains speculate past where the wave's sleep-set pruning actually
	// lands, wasting banked work; negative disables chaining, forcing
	// every node to replay from scratch — the differential baseline).
	// Chained outcomes are bit-identical to the scratch replays they
	// replace (strategy-driven runs are pure functions of their decision
	// sequence), so this changes wall clock, never results.
	ChainDepth int
	// ValidateForks makes every fork also replay from scratch and
	// cross-check the banked outcome bit-for-bit, counting mismatches in
	// Result.ForkMismatches and preferring the scratch outcome. It exists
	// for the differential tests; it is slower than not forking at all.
	ValidateForks bool

	// OnlyKind, when non-empty, makes the search ignore violations of
	// every other kind: the breadth-first order then yields the minimal
	// counterexample OF THAT CLASS. Naive lazy subscription violates both
	// serializability and consistency, but the serializability
	// counterexample (a commit-window race, no pessimistic fallback
	// needed) is strictly shallower, so an unfiltered search always
	// reports it; OnlyKind="consistency" pins the deeper
	// inconsistent-observation-under-a-held-lock hazard as its own
	// class. Hazard-reproduction tests only — a clean configuration is
	// clean for every value of OnlyKind.
	OnlyKind string

	// NoSleepSets disables sleep-set pruning; the cross-check tests use
	// it to verify pruning does not lose states.
	NoSleepSets bool
	// TrackStates records every distinct state fingerprint in the result
	// (for the pruning cross-check tests).
	TrackStates bool

	// Parallel is the host worker count each frontier wave fans out
	// across (<= 0 means GOMAXPROCS). The result is identical for any
	// value.
	Parallel int
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Threads == 0 {
		d.Threads = 2
	}
	if d.Ops == 0 {
		d.Ops = 2
	}
	if d.MaxReplays == 0 {
		d.MaxReplays = 200000
	}
	if d.ChainDepth == 0 {
		d.ChainDepth = 2
	}
	return d
}

// Label renders the configuration for reports and failure dumps.
func (c *Config) Label() string {
	s := fmt.Sprintf("%s/%s %dx%d", c.Scheme, c.Lock, c.Threads, c.Ops)
	if c.Mutant != "" {
		s += " mutant=" + c.Mutant
	}
	return s
}

// Violation is one property failure, with its reproducing schedule and a
// bounded deterministic diagnostic dump.
type Violation struct {
	// Kind is the property violated: serializability, mutex, consistency,
	// lock-restore, or progress.
	Kind string
	// Detail is a one-line description.
	Detail string
	// Schedule is the branching decisions (proc IDs) reproducing the
	// violation; forced decisions (a sole runnable proc) are not listed.
	Schedule []uint8
	// Failure is the diagnostic dump (harness failure-dump machinery).
	Failure *harness.Failure
}

// Error renders the violation as a single line.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s: %s (schedule %s)", v.Kind, v.Detail, FormatSchedule(v.Schedule))
}

// FormatSchedule renders a decision sequence as dot-separated proc IDs.
func FormatSchedule(s []uint8) string {
	if len(s) == 0 {
		return "(empty)"
	}
	var b strings.Builder
	for i, p := range s {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	return b.String()
}

// Result is the outcome of exploring one configuration.
type Result struct {
	Config Config

	// States counts distinct state fingerprints visited.
	States uint64
	// Schedules counts maximal schedules: terminal executions reached.
	Schedules uint64
	// Truncated counts schedules cut by a bound rather than finished.
	Truncated uint64
	// Replays counts prefix replays executed.
	Replays uint64

	// FpPruned counts frontier nodes collapsed into an already-visited
	// state; SleepPruned and StutterPruned count child branches skipped
	// by the sleep-set and stutter prunings.
	FpPruned      uint64
	SleepPruned   uint64
	StutterPruned uint64

	// Forks counts nodes satisfied from a banked chained-replay outcome
	// (no machine was built or run for them); ScratchReplays counts nodes
	// that actually replayed. Forks + ScratchReplays == Replays.
	Forks          uint64
	ScratchReplays uint64
	// SpecWasted counts banked outcomes that were never consumed (the
	// merge pruned or reordered away the predicted child).
	SpecWasted uint64
	// CachePeakBytes is the banked-outcome cache's high-water mark.
	CachePeakBytes uint64
	// ForkMismatches counts banked outcomes that disagreed with a scratch
	// replay (only under Config.ValidateForks; always 0 unless the bank
	// is corrupted — the stale-checkpoint mutation tests prove that).
	ForkMismatches uint64

	// Violation is the first (minimal) property failure, or nil.
	Violation *Violation

	// StateFps holds every distinct state fingerprint in first-visit
	// order (only when Config.TrackStates).
	StateFps []uint64
}

// Line renders the result as one aligned report line.
func (r *Result) Line() string {
	status := "ok"
	if r.Violation != nil {
		status = "VIOLATION " + r.Violation.Kind
	}
	return fmt.Sprintf("%-28s states=%-7d schedules=%-7d truncated=%-5d replays=%-7d fp-pruned=%-6d sleep-pruned=%-6d stutter-pruned=%-6d %s",
		r.Config.Label(), r.States, r.Schedules, r.Truncated, r.Replays,
		r.FpPruned, r.SleepPruned, r.StutterPruned, status)
}

// node is one frontier entry: a schedule prefix plus the bookkeeping the
// prunings need when it is processed. Its slices point into the arenas of
// the merge that enqueued it (see Run), so a node costs no allocation.
type node struct {
	prefix []uint8
	// inherit is the parent's final sleep set, to be filtered against
	// this node's own incoming edge. Siblings share one copy.
	inherit []sleepEntry
	// firstSib is the wave index of the first enqueued child of the same
	// parent; earlier siblings occupy [firstSib, own index).
	firstSib int
	// stutter counts each proc's write-free grants since the last
	// state-changing grant by anyone (parent's view; this node's own
	// incoming grant is folded in when it is processed).
	stutter [maxExploreProcs]uint8
}

// maxExploreProcs bounds the thread count the explorer's per-node arrays
// support; exploration targets 2-3 threads.
const maxExploreProcs = 8

// sleepEntry is one sleep-set member: a proc whose step from the current
// state an explored sibling already covers, with the step's footprint.
type sleepEntry struct {
	proc uint8
	e    edge
}

// childChoice is the child-selection rule's verdict at one frontier.
type childChoice struct {
	// stutter is the node's stutter counters with its own incoming grant
	// folded in.
	stutter [maxExploreProcs]uint8
	// sleep is the caller's buffer with the node's final sleep set, which
	// its children inherit, appended.
	sleep []sleepEntry
	// children[:nChildren] are the admissible child procs, in enabled
	// order.
	children  [maxExploreProcs]uint8
	nChildren int
	// sleepPruned and stutterPruned count the enabled procs each pruning
	// skipped.
	sleepPruned, stutterPruned uint64
}

// chooseChildren is the child-selection rule at node nd's frontier, whose
// incoming grant had footprint last. The merge loop and the chain
// predictor (specNext) both apply it, so a chained replay follows exactly
// the child the merge would enqueue first whenever it knows what the merge
// knows. sibs are the sleep entries of nd's earlier siblings (unfiltered);
// done is the mask of procs already expanded from the frontier state. The
// final sleep set is appended to buf, whose storage the caller owns.
//
// The node's incoming grant is folded into the stutter counters: a
// write-free grant bumps its thread, a state-changing one resets everyone
// (whatever a polling thread re-reads may now differ). The final sleep set
// is the inherited one plus the siblings', minus everything dependent with
// the grant just taken. A child is admissible unless it sleeps, is
// stutter-capped or was already expanded.
func (c *Config) chooseChildren(nd *node, last *edge, sibs []sleepEntry, enabled []uint8, done uint64, buf []sleepEntry) childChoice {
	ch := childChoice{stutter: nd.stutter, sleep: buf}
	start := len(buf)
	if n := len(nd.prefix); n > 0 {
		if writeFree(last) {
			ch.stutter[nd.prefix[n-1]]++
		} else {
			ch.stutter = [maxExploreProcs]uint8{}
		}
		if !c.NoSleepSets {
			// The inherited set is shared with sibling nodes, which
			// chained replays read concurrently: only a caller that owns
			// it (specNext's chain) may hand its storage back as buf.
			for _, set := range [2][]sleepEntry{nd.inherit, sibs} {
				for i := range set {
					if !dependent(&set[i].e, last) {
						ch.sleep = append(ch.sleep, set[i])
					}
				}
			}
		}
	}
	for _, p := range enabled {
		switch {
		case inSleep(ch.sleep[start:], p):
			ch.sleepPruned++
		case ch.stutter[p] >= stutterBound:
			ch.stutterPruned++
		case done&(1<<p) == 0:
			ch.children[ch.nChildren] = p
			ch.nChildren++
		}
	}
	return ch
}

// Run explores one configuration exhaustively (up to its bounds) and
// returns the counts and the first violation, if any.
//
// The search allocates nothing per node once its buffers have grown.
// Waves are double-buffered: merging wave d builds wave d+1 in the other
// buffer, together with that wave's two arenas — the children's prefixes
// and their shared sleep sets — so reusing a buffer two waves later
// overwrites only storage that no live node, banked outcome or running
// replay still reads.
func Run(cfg Config) *Result {
	c := cfg.withDefaults()
	if c.Threads > maxExploreProcs {
		panic("explore: too many threads (exploration targets small configurations)")
	}
	res := &Result{Config: c}
	ex := newExplorer(&c)

	var (
		waves    [2][]node
		prefixes [2][]uint8
		sleeps   [2][]sleepEntry
	)
	wave := []node{{}}
	outs := make([]runOutcome, 0, 64)
	visited := make(map[uint64]uint64) // fingerprint -> expanded-procs mask
	budget := c.MaxReplays
	chainDepth := max(c.ChainDepth, 0)
	cache := newSpecCache()
	var miss []int
	var chains []chainBuf
	var sibs []sleepEntry

	for depth := 0; len(wave) > 0 && depth <= maxDepth; depth++ {
		if len(wave) > budget {
			// Replay budget exhausted: everything still enqueued is
			// truncated, not explored.
			res.Truncated += uint64(len(wave))
			break
		}
		budget -= len(wave)
		outs = zeroed(outs, len(wave))
		// Fork nodes whose outcome a chained replay already banked; only
		// the misses replay. A banked outcome is bit-identical to the
		// scratch replay it replaces, so forking changes wall clock,
		// never results (ValidateForks cross-checks the claim per fork).
		miss = miss[:0]
		for i := range wave {
			o, ok := cache.take(wave[i].prefix)
			if !ok {
				miss = append(miss, i)
				continue
			}
			if c.ValidateForks {
				scratch := ex.replayNode(&wave[i], visited, 0, nil)
				if !outcomesEqual(&o, &scratch) {
					res.ForkMismatches++
					o = scratch
				}
			}
			outs[i] = o
			res.Forks++
		}
		mi := miss
		for len(chains) < len(mi) {
			chains = append(chains, chainBuf{})
		}
		harness.ParallelFor(c.Parallel, len(mi), func(k int) {
			i := mi[k]
			outs[i] = ex.replayNode(&wave[i], visited, chainDepth, &chains[k])
		})
		res.Replays += uint64(len(wave))
		res.ScratchReplays += uint64(len(mi))
		// Bank this wave's chained outcomes in replay order — the
		// deterministic insert order keeps cache contents, and with them
		// every statistic, identical at any Parallel — then drop the
		// generation the search has outgrown: breadth-first search visits
		// each prefix length exactly once, so unconsumed entries at this
		// wave's length are unreachable forever.
		for k := range mi {
			for j := range chains[k].outs {
				co := &chains[k].outs[j]
				if testCorruptBank != nil {
					testCorruptBank(co.prefix, &co.out)
				}
				cache.put(co.prefix, &co.out)
			}
		}
		cache.purgeLen(depth, &res.SpecWasted)

		// Sequential merge in declaration order: deterministic at any
		// Parallel, and breadth-first, so the first violation is minimal.
		nb := (depth + 1) & 1
		next, pre, sleep := waves[nb][:0], prefixes[nb][:0], sleeps[nb][:0]
		for i := range wave {
			nd := &wave[i]
			out := &outs[i]
			if out.violation != nil {
				if res.Violation == nil {
					// Replays run without the flight recorder; re-replay
					// the one violating schedule ring-enabled so the
					// reported dump carries trace events.
					res.Violation = ex.rediagnose(out.violation)
				}
				res.Truncated++
				continue
			}
			if out.terminal {
				res.Schedules++
				continue
			}
			if out.truncated {
				res.Truncated++
				continue
			}

			sibs = sibs[:0]
			for j := nd.firstSib; j < i; j++ {
				sib := wave[j].prefix
				sibs = append(sibs, sleepEntry{proc: sib[len(sib)-1], e: outs[j].lastEdge})
			}
			enabled := out.enabledProcs()
			start := len(sleep)
			ch := c.chooseChildren(nd, &out.lastEdge, sibs, enabled, visited[out.fp], sleep)
			// The children's shared sleep set, or nothing if the node
			// enqueues no child.
			sleep = ch.sleep[:start]

			// Deadlock rule: if every unfinished thread has exhausted
			// its write-free budget, no thread can change shared state
			// again — re-polls are idempotent — so the configuration
			// can never finish from here.
			allCapped := true
			for _, p := range enabled {
				if ch.stutter[p] < stutterBound {
					allCapped = false
					break
				}
			}
			if allCapped {
				if res.Violation == nil {
					res.Violation = ex.diagnose(nd.prefix, "progress",
						"every unfinished thread is re-polling unchanged shared state (deadlock/livelock)")
				}
				res.Truncated++
				continue
			}

			res.SleepPruned += ch.sleepPruned
			res.StutterPruned += ch.stutterPruned
			var newMask uint64
			children := ch.children[:ch.nChildren]
			for _, p := range children {
				newMask |= 1 << p
			}
			if mask, seen := visited[out.fp]; seen {
				if newMask == 0 {
					res.FpPruned++
					continue
				}
				visited[out.fp] = mask | newMask
			} else {
				visited[out.fp] = newMask
				res.States++
				if c.TrackStates {
					res.StateFps = append(res.StateFps, out.fp)
				}
				if newMask == 0 {
					// Every enabled step is covered by a sibling: the
					// schedule closes here without being terminal.
					continue
				}
			}

			sleep = ch.sleep
			inherit := sleep[start:len(sleep):len(sleep)]
			firstSib := len(next)
			for _, p := range children {
				at := len(pre)
				pre = append(append(pre, nd.prefix...), p)
				next = append(next, node{
					prefix:   pre[at:len(pre):len(pre)],
					inherit:  inherit,
					firstSib: firstSib,
					stutter:  ch.stutter,
				})
			}
		}
		waves[nb], prefixes[nb], sleeps[nb] = next, pre, sleep
		if res.Violation != nil {
			res.Truncated += uint64(len(next))
			break
		}
		if depth == maxDepth {
			res.Truncated += uint64(len(next))
			break
		}
		wave = next
	}
	cache.drainAll(&res.SpecWasted)
	res.CachePeakBytes = uint64(cache.peak)
	return res
}

func inSleep(sleep []sleepEntry, p uint8) bool {
	for _, se := range sleep {
		if se.proc == p {
			return true
		}
	}
	return false
}
