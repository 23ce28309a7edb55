package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runBudget bounds a whole run, passes and ladder included; a child still
// running at the deadline is killed.
const runBudget = 170 * time.Second

//go:embed digests.json
var pinnedJSON []byte

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's verdict, printed as the last line of standard
// output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what -out writes: the result plus what produced it.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Passes     int               `json:"passes"`
	Provenance provenance        `json:"provenance"`
	Result     result            `json:"result"`
	Digests    map[string]string `json:"digests"`
	// Layer is pass 0's per-layer counts, which repeat exactly for a seed.
	Layer map[string]float64 `json:"layer"`
	// Raw holds an untraced run's unscaled time medians and the
	// calibration kernel's median.
	Raw      map[string]float64 `json:"raw,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

type provenance struct {
	// NumCPU is also the host worker count every pass runs its units on.
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostProvenance() provenance {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   model,
	}
}

// runOptions are the flags of a measuring run.
type runOptions struct {
	seed    int64
	seconds int
	traced  bool
	out     string
	pin     string
}

// runMain measures w: child processes run passes back to back until the
// --seconds window is used up, each pass setting up from scratch, and the
// run reports medians over passes. Pass 0 is a warm-up: its results are
// checked but its timings are not reported, and in a traced run it is the
// untraced reference the traced passes' digests must reproduce.
func runMain(w *workload, o runOptions) error {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traceDir := filepath.Join(".bench_build", "trace")
	if o.traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var passes []*passResult
	var profiles []string
	for {
		passStart := time.Now()
		profile := ""
		if o.traced && len(passes) > 0 {
			profile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-pass%d.pprof", w.name, o.seed, len(passes)))
			profiles = append(profiles, profile)
		}
		p, err := spawnPass(ctx, exe, w.name, o.seed, profile)
		if err != nil {
			return fmt.Errorf("pass %d: %w", len(passes), err)
		}
		passes = append(passes, p)
		// Start another pass only if it should end inside the window.
		if len(passes) >= 2 && time.Since(start)+time.Since(passStart) > window {
			break
		}
	}

	var pinned map[string]string
	if o.pin == "" {
		if pinned, err = pinnedDigests(w, o.seed); err != nil {
			return err
		}
	}
	attempted, failed, problems := checkUnits(passes, pinned)
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed}
	var raw map[string]float64
	if o.traced {
		res.Metrics, err = tracedMetrics(w, o.seed, passes[1:], profiles)
	} else {
		res.Metrics, raw = endToEndMetrics(passes[1:])
	}
	if err != nil {
		return err
	}

	digests := make(map[string]string, len(passes[0].Units))
	for _, u := range passes[0].Units {
		digests[u.Label] = u.Digest
	}
	rec := record{
		Workload: w.name, Seed: o.seed, Trace: o.traced, Passes: len(passes),
		Provenance: hostProvenance(), Result: res, Digests: digests, Layer: passes[0].Layer, Raw: raw, Problems: problems,
	}
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			return err
		}
	}
	if o.pin != "" {
		if err := pinDigests(o.pin, w, digests, problems); err != nil {
			return err
		}
	}
	printSummary(&rec)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkUnits counts every unit of every pass as attempted, and as failed
// when it broke a seed-independent check, when its digest differs from
// pass 0's (every pass, traced or not, must reproduce the same results),
// or when it differs from the pinned digest (pinned may be nil).
func checkUnits(passes []*passResult, pinned map[string]string) (attempted, failed int, problems []string) {
	ref := passes[0].Units
	if len(ref) == 0 {
		problems = append(problems, "pass 0 ran no units")
	}
	for pi, p := range passes {
		if len(p.Units) != len(ref) {
			problems = append(problems, fmt.Sprintf("pass %d ran %d units, pass 0 ran %d", pi, len(p.Units), len(ref)))
		}
		for ui, u := range p.Units {
			attempted++
			problem := u.Problem
			switch {
			case problem != "":
			case ui >= len(ref) || u.Label != ref[ui].Label:
				problem = "unit list differs from pass 0"
			case u.Digest != ref[ui].Digest:
				problem = fmt.Sprintf("digest %s differs from pass 0's %s", u.Digest, ref[ui].Digest)
			case pinned != nil && pinned[u.Label] != u.Digest:
				problem = fmt.Sprintf("digest %s differs from pinned %q", u.Digest, pinned[u.Label])
			}
			if problem != "" {
				failed++
				problems = append(problems, fmt.Sprintf("pass %d %s: %s", pi, u.Label, problem))
			}
		}
	}
	return attempted, failed, problems
}

// spawnPass runs one pass in a child process of this binary.
func spawnPass(ctx context.Context, exe, workload string, seed int64, profile string) (*passResult, error) {
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var p passResult
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &p, nil
}

// endToEndMetrics reports each end-to-end metric as its median over the
// run's passes, with every time scaled to reference seconds (calibRef).
// raw holds the unscaled medians of the times and of the kernel.
func endToEndMetrics(passes []*passResult) (metrics map[string]value, raw map[string]float64) {
	scale := func(p *passResult) float64 { return calibRef / p.CalibS }
	per := map[string]func(p *passResult) float64{
		"wall_s":       func(p *passResult) float64 { return p.WallS * scale(p) },
		"cpu_s":        func(p *passResult) float64 { return p.CPUS * scale(p) },
		"setup_s":      func(p *passResult) float64 { return p.SetupS * scale(p) },
		"grants_per_s": func(p *passResult) float64 { return float64(p.Grants) / (p.WallS * scale(p)) },
		"peak_rss_mb":  func(p *passResult) float64 { return p.MaxRSSMB },
	}
	medianOf := func(f func(p *passResult) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return median(v)
	}
	metrics = make(map[string]value, len(endToEnd))
	for _, m := range endToEnd {
		metrics[m.Name] = value{medianOf(per[m.Name]), m.Unit}
	}
	raw = map[string]float64{
		"wall_s":  medianOf(func(p *passResult) float64 { return p.WallS }),
		"cpu_s":   medianOf(func(p *passResult) float64 { return p.CPUS }),
		"setup_s": medianOf(func(p *passResult) float64 { return p.SetupS }),
		"calib_s": medianOf(func(p *passResult) float64 { return p.CalibS }),
	}
	return metrics, raw
}

// tracedMetrics reports the per-layer metrics of the traced passes:
// medians for counts and span times, mean CPU seconds per bucket, and the
// cost ladder. It also writes the spans, buckets and ladder to a trace
// file beside the profiles.
func tracedMetrics(w *workload, seed int64, traced []*passResult, profiles []string) (map[string]value, error) {
	vals := make(map[string][]float64)
	for _, p := range traced {
		for k, v := range p.Layer {
			vals[k] = append(vals[k], v)
		}
		for k, v := range spanMetrics(p.Spans) {
			vals[k] = append(vals[k], v)
		}
	}
	cpu := make(map[string]float64)
	for _, prof := range profiles {
		b, err := profileBuckets(prof)
		if err != nil {
			return nil, err
		}
		for k, v := range b {
			cpu["cpu."+k] += v / float64(len(profiles))
		}
	}
	ladder := runLadder(false)
	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		var v float64
		switch {
		case strings.HasPrefix(m.Name, "cpu."):
			v = cpu[m.Name]
		case strings.HasPrefix(m.Name, "ladder."):
			v = ladder[m.Name]
		default:
			v = median(vals[m.Name])
		}
		out[m.Name] = value{v, m.Unit}
	}
	spans := make([][]span, len(traced))
	for i, p := range traced {
		spans[i] = p.Spans
	}
	file := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	return out, writeJSON(file, map[string]any{
		"workload": w.name, "seed": seed, "profiles": profiles,
		"cpu_s": cpu, "ladder": ladder, "spans": spans,
	})
}

// pinnedDigests returns the digests the run must reproduce, or nil when
// none are pinned for this seed.
func pinnedDigests(w *workload, seed int64) (map[string]string, error) {
	if seed != pinnedSeed && !w.seedFree {
		return nil, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if all[w.name] == nil {
		return nil, fmt.Errorf("digests.json pins no digests for %s (record them with -pin)", w.name)
	}
	return all[w.name], nil
}

// pinnedSeed is the seed digests.json holds digests for.
const pinnedSeed = 1

// pinDigests records a clean run's digests as w's pinned set in file.
func pinDigests(file string, w *workload, digests map[string]string, problems []string) error {
	if len(problems) > 0 {
		return fmt.Errorf("-pin: run is not clean: %s", problems[0])
	}
	all := make(map[string]map[string]string)
	raw, err := os.ReadFile(file)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	all[w.name] = digests
	return writeJSON(file, all)
}

func writeJSON(file string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(raw, '\n'), 0o644)
}

// printSummary prints the run for a reader, ahead of the result line.
func printSummary(rec *record) {
	fmt.Printf("workload %s  seed %d  passes %d  units %d  failed %d  correct %v\n",
		rec.Workload, rec.Seed, rec.Passes, rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	ms := endToEnd
	if rec.Trace {
		ms = perLayer
	}
	for _, m := range ms {
		v := rec.Result.Metrics[m.Name]
		fmt.Printf("  %-28s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Println("  problem:", p)
	}
}
