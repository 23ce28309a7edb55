// Command hle-bench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	hle-bench -list
//	hle-bench -fig 3.1 [-quick] [-threads 8] [-budget 2000000] [-seed 1] [-parallel 4]
//	hle-bench -all [-quick]
//	hle-bench -fig 3.1 -profile json -profile-out profiles.json
//	hle-bench -explore [-quick] [-parallel 4] [-chain -1]
//
// -explore replaces figure generation with the bounded model-checking
// sweep (internal/explore): every scheme crossed with every sweep lock,
// reporting states, schedules and pruning counts per configuration. The
// report is deterministic at any -parallel; -quick selects the CI tier.
//
// -profile attaches the abort-attribution profiler (internal/obs) to every
// experiment point and emits each point's profile — cause breakdown,
// conflict heatmap, occupancy waterfall, latency histograms — as json or
// text, after the tables (or to -profile-out). Profiling is passive: the
// tables are byte-identical with it on or off, and profile output is
// deterministic for a fixed seed at any -parallel.
//
// The host time these runs cost is measured by the benchmark in bench/
// (bash bench/run.sh -workload W; see bench/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hle/internal/explore"
	"hle/internal/figures"
	"hle/internal/locks"
	"hle/internal/obs"
	"hle/internal/stats"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command body. It returns the exit status rather than exiting,
// so the deferred profile writers run on every path, failures included.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		figID     = fs.String("fig", "", "figure id to run (see -list)")
		all       = fs.Bool("all", false, "run every figure")
		list      = fs.Bool("list", false, "list available figures")
		doExplore = fs.Bool("explore", false,
			"run the bounded model-checking sweep (every scheme x sweep lock) instead of figures; -quick selects the CI tier")
		quick    = fs.Bool("quick", false, "smaller sweeps for a fast smoke run")
		csv      = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		threads  = fs.Int("threads", 8, "simulated hardware threads")
		budget   = fs.Uint64("budget", 0, "virtual-cycle budget per measurement (0 = default)")
		seed     = fs.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"host workers experiment points fan out across (output is identical for any value)")
		chain      = fs.Int("chain", 0, "explore: frontiers one replay may bank past its own node (0 = default 2, negative = none: every node replays from scratch)")
		profile    = fs.String("profile", "", "collect per-point abort-attribution profiles: json or text")
		profileOut = fs.String("profile-out", "", "write -profile output to this file instead of stdout")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit; records every allocation (MemProfileRate 1), so its alloc counts are exact, and the run is slower")
	)
	fs.Parse(args)
	if *threads < 1 || *threads > locks.MaxThreads {
		fmt.Fprintf(os.Stderr, "hle-bench: -threads must be in 1..%d, got %d\n", locks.MaxThreads, *threads)
		return 2
	}
	if *profile != "" && *profile != "json" && *profile != "text" {
		fmt.Fprintf(os.Stderr, "hle-bench: -profile must be json or text, got %q\n", *profile)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hle-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hle-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Record every allocation rather than one per 512 KiB sampled, so
		// the profile's alloc_objects is a count, not an estimate. Set
		// before any work: the rate applies to allocations made after it.
		runtime.MemProfileRate = 1
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hle-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hle-bench: %v\n", err)
			}
		}()
	}

	opts := figures.Options{
		Threads:  *threads,
		Budget:   *budget,
		Quick:    *quick,
		Seed:     *seed,
		Parallel: *parallel,
	}

	// namedProfile pairs one experiment point's profile with its figure
	// and point coordinates for the -profile report.
	type namedProfile struct {
		Figure  string       `json:"figure"`
		Point   string       `json:"point"`
		Profile *obs.Profile `json:"profile"`
	}
	var profiles []namedProfile
	var curFig string
	if *profile != "" {
		opts.Profile = &obs.Options{}
		// Figures run serially and deliver points in declaration order,
		// so appending here keeps the report deterministic.
		opts.ProfileSink = func(name string, p *obs.Profile) {
			profiles = append(profiles, namedProfile{Figure: curFig, Point: name, Profile: p})
		}
	}
	runFigure := func(f figures.Figure) []*stats.Table {
		curFig = f.ID
		return f.Run(opts)
	}

	switch {
	case *doExplore:
		if !runExplore(*quick, *parallel, *chain) {
			return 1
		}
	case *list:
		for _, f := range figures.All() {
			fmt.Printf("%-8s %s\n", f.ID, f.Title)
		}
	case *all:
		for _, f := range figures.All() {
			fmt.Printf("\n### Figure %s — %s\n\n", f.ID, f.Title)
			printTables(runFigure(f), *csv)
		}
	case *figID != "":
		f := figures.ByID(*figID)
		if f == nil {
			// Group the valid ids by family so the error stays readable as
			// the extension list grows.
			var core, ext []string
			for _, f := range figures.All() {
				if strings.HasPrefix(f.ID, "ext-") {
					ext = append(ext, f.ID)
				} else {
					core = append(core, f.ID)
				}
			}
			fmt.Fprintf(os.Stderr, "hle-bench: unknown figure %q; valid ids:\n  core: %s\n  extensions: %s\n",
				*figID, strings.Join(core, ", "), strings.Join(ext, ", "))
			return 1
		}
		fmt.Printf("### Figure %s — %s\n\n", f.ID, f.Title)
		printTables(runFigure(*f), *csv)
	default:
		fs.Usage()
		return 2
	}

	if *profile != "" {
		var buf bytes.Buffer
		if *profile == "json" {
			out, err := json.MarshalIndent(profiles, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "hle-bench: marshaling profiles: %v\n", err)
				return 1
			}
			buf.Write(out)
			buf.WriteByte('\n')
		} else {
			for _, np := range profiles {
				fmt.Fprintf(&buf, "== %s %s ==\n%s\n", np.Figure, np.Point, np.Profile.Text())
			}
		}
		if *profileOut != "" {
			if err := os.WriteFile(*profileOut, buf.Bytes(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "hle-bench: writing profiles: %v\n", err)
				return 1
			}
		} else {
			os.Stdout.Write(buf.Bytes())
		}
	}
	return 0
}

// runExplore runs the bounded model-checking sweep and prints one report
// line per configuration, then a totals line. The output is deterministic
// at any parallel and chain depth (banked outcomes are bit-identical to
// the replays they replace), so stdout diffs cleanly across modes. Any
// violation prints its counterexample schedule and diagnostic dump; the
// result reports whether the sweep was clean.
func runExplore(quick bool, parallel, chain int) bool {
	var states, schedules, replays, truncated uint64
	violations := 0
	for _, cfg := range explore.Battery(quick) {
		cfg.Parallel = parallel
		cfg.ChainDepth = chain
		r := explore.Run(cfg)
		fmt.Println(r.Line())
		states += r.States
		schedules += r.Schedules
		replays += r.Replays
		truncated += r.Truncated
		if r.Violation != nil {
			violations++
			fmt.Printf("\n%s: %s\n%s\n", cfg.Label(), r.Violation.Error(), r.Violation.Failure.Dump())
		}
	}
	fmt.Printf("total: states=%d schedules=%d replays=%d truncated=%d violations=%d\n",
		states, schedules, replays, truncated, violations)
	return violations == 0
}

func printTables(tables []*stats.Table, csv bool) {
	for _, tb := range tables {
		if csv {
			tb.FprintCSV(os.Stdout)
		} else {
			tb.Fprint(os.Stdout)
		}
		fmt.Println()
	}
}
