package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hle/internal/explore"
	"hle/internal/harness"
	"hle/internal/sim"
	"hle/internal/tsx"
)

// unitResult is one unit's outcome in a pass.
type unitResult struct {
	Label   string `json:"label"`
	Digest  string `json:"digest"`
	Problem string `json:"problem,omitempty"`
}

// passResult is what one child process reports for one pass.
type passResult struct {
	// CalibS is the calibration kernel's time, taken before the pass.
	CalibS   float64      `json:"calib_s"`
	SetupS   float64      `json:"setup_s"`
	WallS    float64      `json:"wall_s"`
	CPUS     float64      `json:"cpu_s"`
	MaxRSSMB float64      `json:"peak_rss_mb"`
	Grants   uint64       `json:"grants"`
	Units    []unitResult `json:"units"`
	// Layer holds the per-layer counts of the measured phase.
	Layer map[string]float64 `json:"layer"`
	// Spans is the pass's span record (traced passes only).
	Spans []span `json:"spans,omitempty"`
}

// childMain runs one pass of w in this process and writes its passResult
// to stdout. With cpuProfile set the pass is traced: everything after the
// calibration is CPU-profiled into that file, and spans are recorded.
func childMain(w *workload, seed int64, cpuProfile string) error {
	calib := calibrate()
	res, err := profiledPass(w, seed, cpuProfile)
	if err != nil {
		return err
	}
	res.CalibS = calib
	return json.NewEncoder(os.Stdout).Encode(res)
}

// profiledPass runs the pass, traced when cpuProfile is set.
func profiledPass(w *workload, seed int64, cpuProfile string) (*passResult, error) {
	if cpuProfile == "" {
		return runPass(w, seed, nil)
	}
	f, err := os.Create(cpuProfile)
	if err != nil {
		return nil, err
	}
	defer f.Close() // error paths only; the success path checks Close
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	res, err := runPass(w, seed, newTracer(time.Now()))
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return res, f.Close()
}

// setupFloor is how long a pass keeps repeating its set-up: a set-up of a
// few milliseconds is repeated until the repetitions add up to this, and
// the pass reports their median, so it reads steadily. The last
// repetition's units are the ones measured.
const setupFloor = 100 * time.Millisecond

func runPass(w *workload, seed int64, tr *tracer) (*passResult, error) {
	workers := runtime.NumCPU()
	var units []unit
	var setups []float64
	for total := time.Duration(0); total < setupFloor; {
		start := time.Now()
		sp := tr.begin("setup", "", 0)
		units = w.setup(seed, tr, sp)
		tr.end(sp)
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		total += d
	}
	res := &passResult{SetupS: median(setups)}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _, err := rusage()
	if err != nil {
		return nil, err
	}
	grants0, points0 := sim.Grants(), harness.PointsRun()
	start := time.Now()
	measure := tr.begin("measure", "", 0)
	points, configs := runUnits(units, workers, tr, measure)
	tr.end(measure)
	res.WallS = time.Since(start).Seconds()
	cpu1, rss, err := rusage()
	if err != nil {
		return nil, err
	}
	res.CPUS, res.MaxRSSMB = cpu1-cpu0, rss
	res.Grants = sim.Grants() - grants0
	runtime.ReadMemStats(&ms1)

	res.Layer = layerCounts(units, points, configs)
	res.Layer["sim.grants"] = float64(res.Grants)
	res.Layer["harness.points"] = float64(harness.PointsRun() - points0)
	res.Layer["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.Layer["go.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	res.Layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Layer["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	for i, u := range units {
		ur := unitResult{Label: u.label}
		if u.point != nil {
			ur.Digest, ur.Problem = pointDigest(&points[i]), pointProblem(&points[i])
		} else {
			ur.Digest, ur.Problem = configDigest(configs[i]), configProblem(configs[i])
		}
		res.Units = append(res.Units, ur)
	}
	if tr != nil {
		res.Spans = tr.spans
	}
	return res, nil
}

// runUnits runs a pass's units: points across workers host goroutines,
// configurations one after another with their frontier waves fanned out
// across the same number of workers. Results are indexed like units.
func runUnits(units []unit, workers int, tr *tracer, parent int) ([]harness.Result, []*explore.Result) {
	points := make([]harness.Result, len(units))
	configs := make([]*explore.Result, len(units))
	harness.ParallelFor(workers, len(units), func(i int) {
		if units[i].point == nil {
			return
		}
		sp := tr.begin("harness.point", units[i].label, parent)
		points[i] = units[i].point.Run()
		tr.end(sp)
	})
	for i, u := range units {
		if u.cfg == nil {
			continue
		}
		cfg := *u.cfg
		cfg.Parallel = workers
		sp := tr.begin("explore.config", u.label, parent)
		configs[i] = explore.Run(cfg)
		tr.end(sp)
	}
	return points, configs
}

// layerCounts sums the deterministic per-layer counts of a pass's results.
func layerCounts(units []unit, points []harness.Result, configs []*explore.Result) map[string]float64 {
	var ops, attempts, nonSpec, transitions, mcycles float64
	var st tsx.Stats
	for i := range points {
		r := &points[i]
		ops += float64(r.Ops.Ops)
		attempts += float64(r.Ops.Attempts)
		nonSpec += float64(r.Ops.NonSpec)
		mcycles += float64(r.MaxClock) * threads / 1e6
		st.Add(r.TSX)
		if units[i].transitions != nil {
			transitions += float64(units[i].transitions())
		}
	}
	var states, replays, forks, scratch, wasted, peak float64
	for _, r := range configs {
		if r == nil {
			continue
		}
		states += float64(r.States)
		replays += float64(r.Replays)
		forks += float64(r.Forks)
		scratch += float64(r.ScratchReplays)
		wasted += float64(r.SpecWasted)
		peak = max(peak, float64(r.CachePeakBytes)/(1<<20))
	}
	m := map[string]float64{
		"sim.mcycles":               mcycles,
		"tsx.begun":                 float64(st.Begun),
		"tsx.committed":             float64(st.Committed),
		"tsx.committed_accesses":    float64(st.CommittedAccesses),
		"core.ops":                  ops,
		"core.attempts":             attempts,
		"core.useful_ratio":         ratio(ops, attempts),
		"core.nonspec_frac":         ratio(nonSpec, ops),
		"adapt.transitions":         transitions,
		"explore.states":            states,
		"explore.replays":           replays,
		"explore.forks":             forks,
		"explore.scratch_replays":   scratch,
		"explore.fork_rate":         ratio(forks, replays),
		"explore.spec_wasted":       wasted,
		"explore.bank_useful_ratio": ratio(forks, forks+wasted),
		"explore.cache_peak_mb":     peak,
	}
	for c := 1; c < len(st.Aborted); c++ {
		m["tsx.aborts."+tsx.Cause(c).String()] = float64(st.Aborted[c])
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rusage returns the process's user+system CPU seconds so far and its
// peak resident set size in MB.
func rusage() (cpuS, maxRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
