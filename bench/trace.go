package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are held
// in memory and written out when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer records spans. A nil tracer records nothing, so untraced passes
// run the same code at no cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span under parent (0 for a root) and returns its ID. The
// label names the unit a span covers, if any.
func (tr *tracer) begin(name, label string, parent int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Seconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Label: label, Start: now})
	return id
}

func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := time.Since(tr.t0).Seconds()
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// spanMetrics derives the span-based per-layer metrics of one pass;
// populate time is per set-up, as set-ups may repeat.
func spanMetrics(spans []span) map[string]float64 {
	var populate, setups float64
	var points, configs []float64
	for _, s := range spans {
		switch s.Name {
		case "setup":
			setups++
		case "harness.populate":
			populate += s.seconds()
		case "harness.point":
			points = append(points, s.seconds())
		case "explore.config":
			configs = append(configs, s.seconds())
		}
	}
	return map[string]float64{
		"harness.populate_s":   ratio(populate, setups),
		"harness.point_s.p50":  median(points),
		"harness.point_s.max":  maxOf(points),
		"explore.config_s.p50": median(configs),
		"explore.config_s.max": maxOf(configs),
	}
}

// cpuBuckets are the host-CPU layers a profile sample can be charged to.
var cpuBuckets = []string{
	"runtime_switch", "runtime_gc", "sim", "tsx", "mem", "locks", "core",
	"hwext", "harness", "workload", "obs", "adapt", "explore", "check", "other",
}

// layerOfPackage maps an hle/internal package to its CPU bucket.
var layerOfPackage = map[string]string{
	"sim": "sim", "tsx": "tsx", "mem": "mem", "locks": "locks", "core": "core",
	"hwext": "hwext", "harness": "harness", "obs": "obs", "adapt": "adapt",
	"explore": "explore", "check": "check",
	"rbtree": "workload", "hashtable": "workload", "shard": "workload", "traffic": "workload",
}

// switchFrames are the Go runtime's channel, park and scheduling
// functions: the goroutine handoff the simulator's token passing costs,
// including idle processors spinning for work.
var switchFrames = map[string]bool{
	"chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"chansend": true, "chansend1": true, "selectgo": true,
	"gopark": true, "goparkunlock": true, "park_m": true,
	"schedule": true, "findRunnable": true, "stealWork": true,
	"goready": true, "ready": true, "mcall": true, "gosched_m": true,
	"goschedImpl": true, "stopm": true, "startm": true, "wakep": true,
	"handoffp": true, "notesleep": true, "notewakeup": true,
	"runqget": true, "runqput": true, "casgstatus": true, "goexit0": true,
}

// gcFrames are the roots of garbage-collector work: background mark
// workers, mutator assists, and the background sweeper and scavenger.
var gcFrames = map[string]bool{
	"gcBgMarkWorker": true, "gcAssistAlloc": true, "gcAssistAlloc1": true,
	"bgsweep": true, "bgscavenge": true,
}

// bucketOf charges one sampled stack (innermost frame first) to a layer:
// anything under a GC root is GC; otherwise the innermost frame that is
// either runtime handoff machinery or hle/internal code decides.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if fn, ok := strings.CutPrefix(f, "runtime."); ok && gcFrames[fn] {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		if fn, ok := strings.CutPrefix(f, "runtime."); ok {
			if switchFrames[fn] {
				return "runtime_switch"
			}
			continue
		}
		if rest, ok := strings.CutPrefix(f, "hle/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if layer, ok := layerOfPackage[pkg]; ok {
				return layer
			}
			return "other"
		}
	}
	return "other"
}

// profileBuckets reads a CPU profile with the toolchain's pprof and
// returns host CPU seconds per bucket.
func profileBuckets(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	buckets, perr := parseTraces(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return buckets, perr
}

// parseTraces buckets the sample stacks of `go tool pprof -traces` output.
// Each sample is a block between separator lines; its first line carries
// the sampled CPU time before the innermost frame, and every further line
// is one outer frame.
func parseTraces(r io.Reader) (map[string]float64, error) {
	buckets := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		buckets[b] = 0
	}
	var frames []string
	var secs float64
	flush := func() {
		if len(frames) > 0 {
			buckets[bucketOf(frames)] += secs
		}
		frames, secs = frames[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			secs = d.Seconds()
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	return buckets, sc.Err()
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
