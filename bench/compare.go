package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
)

// bench is the part of BENCHMARK.json the code reads back.
type bench struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []judged `json:"end_to_end"`
	PerLayer []judged `json:"per_layer"`
}

// judged is a BENCHMARK.json metric: its direction, and for an end-to-end
// metric the bound by which it may worsen.
type judged struct {
	metric
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBench reads BENCHMARK.json from the repository root, whether the
// benchmark runs from the root or from its own directory.
func loadBench() (*bench, error) {
	var lastErr error
	for _, f := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			lastErr = err
			continue
		}
		var b bench
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		return &b, nil
	}
	return nil, lastErr
}

// stats summarizes one side's values of one metric. Quartiles follow
// Python's statistics.quantiles(values, n=4), the method the benchmark's
// acceptance check uses.
type stats struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(v []float64) stats {
	s := stats{N: len(v), Values: v}
	if len(v) == 0 {
		return s
	}
	s.Median = median(v)
	s.Q1, s.Q3 = quartiles(v)
	return s
}

// quartiles is statistics.quantiles(v, n=4) with the default exclusive
// method, returning the first and third quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func (s stats) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// comparison is one (workload, metric) row of a comparison.
type comparison struct {
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	A       stats   `json:"a"`
	B       stats   `json:"b"`
	WinRate float64 `json:"b_win_rate"`
	Verdict string  `json:"verdict"`
}

// judge sets the verdict of B against A for a metric with a bound:
// improved when every B run beats every A run; regressed when B's median
// is worse by more than the bound; unresolved when either side's spread
// is wider than the bound; improved when B wins nine tenths of the pairs
// and the medians differ by more than A's quartile spread; unchanged
// otherwise. Per-layer metrics have no bound and get no verdict.
func (c *comparison) judge() {
	if c.Bound == 0 || c.A.N == 0 || c.B.N == 0 {
		c.Verdict = "-"
		return
	}
	lower := c.Better == "lower"
	better := func(b, a float64) bool { return (lower && b < a) || (!lower && b > a) }
	pairs, wins := min(c.A.N, c.B.N), 0
	for i := 0; i < pairs; i++ {
		if better(c.B.Values[i], c.A.Values[i]) {
			wins++
		}
	}
	c.WinRate = float64(wins) / float64(pairs)
	allBetter := true
	for _, b := range c.B.Values {
		for _, a := range c.A.Values {
			allBetter = allBetter && better(b, a)
		}
	}
	worse := (c.B.Median - c.A.Median) / c.A.Median
	if !lower {
		worse = -worse
	}
	switch {
	case allBetter:
		c.Verdict = "improved"
	case worse > c.Bound:
		c.Verdict = "regressed"
	case max(c.A.spread(), c.B.spread()) > c.Bound:
		c.Verdict = "unresolved"
	case c.WinRate >= 0.9 && -worse*c.A.Median > c.A.Q3-c.A.Q1:
		c.Verdict = "improved"
	default:
		c.Verdict = "unchanged"
	}
}

// comparisonReport is what -compare prints and, with -out, writes.
type comparisonReport struct {
	Provenance provenance                        `json:"provenance"`
	Metrics    map[string]map[string]*comparison `json:"metrics"`
	FailedFrac map[string][2]float64             `json:"failed_frac"`
}

// compareMain compares run records A against B, prints one row per
// (workload, metric), and fails on a regression or a rise in the failed
// fraction.
func compareMain(aFiles, bFiles []string, out string) error {
	if len(aFiles) == 0 || len(bFiles) == 0 {
		return errors.New("-compare needs A.json... -- B.json...")
	}
	bm, err := loadBench()
	if err != nil {
		return err
	}
	a, err := readRecords(aFiles)
	if err != nil {
		return err
	}
	b, err := readRecords(bFiles)
	if err != nil {
		return err
	}
	rep := comparisonReport{
		Provenance: b[0].Provenance,
		Metrics:    make(map[string]map[string]*comparison),
		FailedFrac: make(map[string][2]float64),
	}
	defs := make(map[string]judged)
	for _, m := range slices.Concat(bm.EndToEnd, bm.PerLayer) {
		defs[m.Name] = m
	}
	regressed := false
	for _, w := range bm.Workloads {
		av, bv := metricValues(a, w.Name), metricValues(b, w.Name)
		if len(av) == 0 && len(bv) == 0 {
			continue
		}
		rows := make(map[string]*comparison)
		names := make([]string, 0, len(defs))
		for name := range defs {
			if len(av[name]) > 0 || len(bv[name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Printf("%s\n  %-28s %-7s %32s %32s %6s  %s\n", w.Name, "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "B wins", "verdict")
		for _, name := range names {
			m := defs[name]
			c := &comparison{Unit: m.Unit, Better: m.Better, Bound: m.Bound, A: summarize(av[name]), B: summarize(bv[name])}
			c.judge()
			rows[name] = c
			regressed = regressed || c.Verdict == "regressed"
			fmt.Printf("  %-28s %-7s %32s %32s %5.0f%%  %s\n", name, c.Unit, c.A.String(), c.B.String(), 100*c.WinRate, c.Verdict)
		}
		rep.Metrics[w.Name] = rows
		fa, fb := failedFrac(a, w.Name), failedFrac(b, w.Name)
		rep.FailedFrac[w.Name] = [2]float64{fa, fb}
		fmt.Printf("  %-28s %-7s %32.4g %32.4g\n", "failed_frac", "ratio", fa, fb)
		if fb > fa {
			fmt.Println("  failed_frac rose: regressed")
			regressed = true
		}
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	if regressed {
		return errors.New("B regressed against A")
	}
	return nil
}

func (s stats) String() string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.Median, s.Q1, s.Q3)
}

func readRecords(files []string) ([]record, error) {
	recs := make([]record, 0, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// metricValues collects each metric's values across one workload's
// records, in file order.
func metricValues(recs []record, workload string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		for name, v := range r.Result.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out
}

func failedFrac(recs []record, workload string) float64 {
	var failed, attempted int
	for _, r := range recs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}
