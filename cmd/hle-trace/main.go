// Command hle-trace shows what a lock-elision scheme does on the simulated
// machine. Its default mode prints an annotated engine-event trace of a
// small two-thread scenario — the avalanche in microcosm. It is a
// teaching and debugging aid: every simulated coherence event (loads,
// stores, elisions, dooms, publishes) is shown in token order.
//
// The point modes run N threads over a red-black tree protected by one
// global lock, under any harness scheme/lock combination, with the
// profiler attached: -mode summary prints throughput, the abort breakdown
// and time-sliced serialization dynamics, -mode waterfall charts
// per-window speculating/serialized occupancy (the avalanche as a time
// series), and -mode heatmap ranks the cache lines conflict aborts die
// on, with the lock words named. Each point runs on the machine its
// scheme needs (HLE-HWExt gets the Chapter 7 extension).
//
// Usage:
//
//	hle-trace [-scheme HLE|HLE-SCM|...] [-events 120]
//	hle-trace -mode summary   -lock MCS -scheme HLE-SCM -threads 8 -size 128 -updates 20 -budget 2000000 -seed 1
//	hle-trace -mode waterfall [-scheme HLE] [-lock MCS] [-threads 8] [-budget 400000] [-seed 4]
//	hle-trace -mode heatmap   [-scheme HLE] [-lock TTAS] [-threads 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/locks"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// modes lists every hle-trace mode with a one-line description. The -mode
// flag help and the unknown-mode error are both derived from this table,
// so adding a mode here keeps them in sync (the same way hle-bench lists
// figure ids on an unknown -fig).
var modes = []struct{ name, desc string }{
	{"trace", "annotated engine-event trace of a two-thread elision scenario"},
	{"summary", "throughput, abort breakdown and serialization dynamics of a tree point"},
	{"waterfall", "per-window speculating/serialized occupancy chart"},
	{"heatmap", "conflict-abort ranking of the hottest cache lines"},
}

func modeNames() string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body: it parses args, writes the report to stdout
// and returns the exit status (2 for usage errors).
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hle-trace", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "trace", "one of: "+modeNames())
		scheme  = fs.String("scheme", "HLE", "scheme: "+strings.Join(harness.SchemeNames(), ", "))
		lock    = fs.String("lock", "TTAS", "main lock for point modes: TTAS, MCS, Ticket, AdjTicket, CLH, AdjCLH (trace mode always uses TTAS)")
		threads = fs.Int("threads", 8, "simulated threads for point modes")
		size    = fs.Int("size", 64, "red-black tree size for point modes")
		updates = fs.Int("updates", 100, "update percentage for point modes (split evenly insert/delete)")
		budget  = fs.Uint64("budget", 400_000, "virtual-cycle budget for point modes")
		seed    = fs.Int64("seed", 4, "random seed")
		limit   = fs.Int("events", 120, "number of events to print (trace mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.ContainsFunc(modes, func(m struct{ name, desc string }) bool { return m.name == *mode }) {
		fmt.Fprintf(os.Stderr, "hle-trace: unknown mode %q; valid modes:\n", *mode)
		for _, m := range modes {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", m.name, m.desc)
		}
		return 2
	}
	if !slices.Contains(harness.SchemeNames(), *scheme) {
		fmt.Fprintf(os.Stderr, "hle-trace: unknown scheme %q; valid schemes: %s\n",
			*scheme, strings.Join(harness.SchemeNames(), ", "))
		return 2
	}
	if locks.MakerByName(*lock) == nil {
		fmt.Fprintf(os.Stderr, "hle-trace: unknown lock %q\n", *lock)
		return 2
	}

	spec := harness.SchemeSpec{Scheme: *scheme, Lock: *lock}
	if *mode == "trace" {
		runTrace(stdout, spec, *seed, *limit)
		return 0
	}
	runPoint(stdout, *mode, spec, *threads, *size, *updates, *budget, *seed)
	return 0
}

// runTrace prints the annotated event trace of two threads incrementing
// one counter under spec's scheme on a TTAS main lock.
func runTrace(stdout io.Writer, spec harness.SchemeSpec, seed int64, limit int) {
	cfg := tsx.DefaultConfig(2)
	cfg.Seed = seed
	cfg.SpuriousPerAccess = 0
	m := tsx.NewMachine(spec.Machine(cfg))

	var s core.Scheme
	var hot, lockAddr mem.Addr
	m.RunOne(func(t *tsx.Thread) {
		main := locks.NewTTAS(t)
		lockAddr = main.Addr()
		s = spec.Assemble(main, spec.AuxLocks(t))
		hot = t.AllocLines(1)
	})

	names := map[mem.Addr]string{hot: "counter", lockAddr: "lock"}
	annotate := func(a mem.Addr) string {
		if n, ok := names[a]; ok {
			return n
		}
		if n, ok := names[mem.Addr(mem.LineOf(a)*mem.LineWords)]; ok {
			return n + "-line"
		}
		return fmt.Sprintf("@%d", a)
	}

	count := 0
	tsx.Trace = func(id int, event string, a mem.Addr, v uint64) {
		if count >= limit {
			return
		}
		count++
		indent := ""
		if id == 1 {
			indent = "                                      "
		}
		fmt.Fprintf(stdout, "%s[T%d] %-10s %-12s = %d\n", indent, id, event, annotate(a), v)
	}
	defer func() { tsx.Trace = nil }()

	fmt.Fprintf(stdout, "two threads increment one counter under %s (TTAS main lock)\n", s.Name())
	fmt.Fprintln(stdout, "left column: thread 0; right column: thread 1")
	fmt.Fprintln(stdout)
	m.Run(2, func(t *tsx.Thread) {
		s.Setup(t)
		for i := 0; i < 6; i++ {
			s.Run(t, func() {
				v := t.Load(hot)
				t.Work(10)
				t.Store(hot, v+1)
			})
		}
	})

	var final uint64
	tsx.Trace = nil
	m.RunOne(func(t *tsx.Thread) { final = t.Load(hot) })
	fmt.Fprintf(stdout, "\nfinal counter = %d (12 expected)\n", final)
	st := s.TotalStats()
	fmt.Fprintf(stdout, "attempts/op %.2f, non-speculative fraction %.2f\n",
		st.AttemptsPerOp(), st.NonSpecFraction())
}

// runPoint runs a red-black-tree point under spec with the profiler
// attached and renders the requested mode's view.
func runPoint(stdout io.Writer, mode string, spec harness.SchemeSpec, threads, size, updates int, budget uint64, seed int64) {
	cfg := tsx.DefaultConfig(threads)
	cfg.Seed = seed
	cfg.MemWords = size*16 + 1<<16
	mix := harness.Mix{InsertPct: updates / 2, DeletePct: updates / 2}
	// ~40 slices across the run keep the sparklines and the waterfall
	// terminal-sized.
	window := max(budget/40, 1)
	var w harness.Workload
	res := harness.Point(cfg, spec,
		func(th *tsx.Thread) harness.Workload {
			w = harness.NewRBTree(th, size, mix)
			return w
		},
		harness.Config{
			Threads:     threads,
			CycleBudget: budget,
			SliceCycles: window,
			Profile:     &obs.Options{WindowCycles: window},
		})

	if mode != "summary" {
		p := res.Profile
		fmt.Fprintf(stdout, "%s %s, %d threads, %d-node tree, %d/%d updates, %d cycles (seed %d)\n",
			spec.Scheme, spec.Lock, threads, size, mix.InsertPct, mix.DeletePct, budget, seed)
		fmt.Fprintf(stdout, "profile %s: begun=%d committed=%d aborted=%d\n",
			p.Label, p.TotalBegun, p.TotalCommits, p.TotalAborts)
		if mode == "waterfall" {
			fmt.Fprint(stdout, p.Waterfall())
		} else {
			fmt.Fprint(stdout, p.HeatmapText())
		}
		return
	}
	fmt.Fprintf(stdout, "workload: %s, %d threads, %s %s lock, %d virtual cycles\n\n",
		w.Name(), threads, spec.Scheme, spec.Lock, budget)
	fmt.Fprintf(stdout, "operations           %10d\n", res.Ops.Ops)
	fmt.Fprintf(stdout, "throughput           %10.1f ops/Mcycle\n", res.Throughput)
	fmt.Fprintf(stdout, "attempts/op          %10.2f\n", res.Ops.AttemptsPerOp())
	fmt.Fprintf(stdout, "non-spec fraction    %10.3f\n", res.Ops.NonSpecFraction())
	fmt.Fprintf(stdout, "transactions begun   %10d\n", res.TSX.Begun)
	fmt.Fprintf(stdout, "transactions commit  %10d\n", res.TSX.Committed)
	fmt.Fprintf(stdout, "aborts               %10d\n", res.TSX.TotalAborts())
	for c := tsx.CauseConflict; c <= tsx.CauseHLERestore; c++ {
		if n := res.TSX.Aborted[c]; n > 0 {
			fmt.Fprintf(stdout, "  %-18s %10d\n", c.String(), n)
		}
	}
	fmt.Fprintln(stdout, "\nserialization dynamics (non-spec fraction per slot):")
	fmt.Fprintf(stdout, "  [%s]\n", stats.Sparkline(res.Timeline.NonSpecFractions(), 1))
	fmt.Fprintln(stdout, "throughput per slot (normalized to mean):")
	fmt.Fprintf(stdout, "  [%s]\n", stats.Sparkline(res.Timeline.NormalizedOps(), 2))
}
