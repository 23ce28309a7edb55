// Command bench is the repository's host-time benchmark: it measures what
// regenerating the paper's experiments costs on the host — wall and CPU
// time, set-up time, simulator throughput and memory — on four workloads,
// checks every simulated result against pinned digests, and with -trace 1
// splits the host time by layer. See README.md.
//
// Usage:
//
//	bash bench/run.sh -workload W [-seed N] [-seconds S] [-trace 0|1] [-out F] [-pin FILE]
//	bash bench/run.sh -compare A.json... -- B.json... [-out F]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: "+workloadNames())
		seed       = flag.Int64("seed", 1, "seed for every machine, point and traffic pattern")
		seconds    = flag.Int("seconds", 30, "length of the measuring window in seconds")
		trace      = flag.Int("trace", 0, "1 reports per-layer metrics from traced passes and the cost ladder; 0 reports end-to-end metrics")
		out        = flag.String("out", "", "write the run record (or, with -compare, the comparison) as JSON to this file")
		pin        = flag.String("pin", "", "record this seed-1 run's digests as the workload's pinned digests in this file")
		compare    = flag.Bool("compare", false, "compare run records: -compare A.json... -- B.json...")
		child      = flag.Bool("child", false, "run one pass in this process (internal)")
		cpuProfile = flag.String("cpuprofile", "", "with -child: trace the pass, CPU-profiling it into this file (internal)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *pin, *compare, *child, *cpuProfile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out, pin string, compare, child bool, cpuProfile string) error {
	if compare {
		args := flag.Args()
		i := slices.Index(args, "--")
		if i < 0 {
			return errors.New("-compare needs A.json... -- B.json...")
		}
		return compareMain(args[:i], args[i+1:], out)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown -workload %q (have %s)", name, workloadNames())
	}
	if child {
		return childMain(w, seed, cpuProfile)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, not %d", seconds)
	}
	if pin != "" && seed != pinnedSeed {
		return fmt.Errorf("-pin needs -seed %d", pinnedSeed)
	}
	return runMain(w, runOptions{seed: seed, seconds: seconds, traced: trace == 1, out: out, pin: pin})
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
