// Package obs is the profiling subsystem: it turns the engine's enriched
// event stream (tsx.Observer) into attribution a person can act on —
// which cache line, which abort cause, which thread killed this
// transaction.
//
// A Collector attaches to one machine and consumes transaction-boundary
// events, serial-section marks, and scheduler grants. Its Profile reports:
//
//   - an abort-cause breakdown per thread, with conflicts split into
//     conflict-on-lock-line vs conflict-on-data-line (the distinction the
//     Chapter 7 hardware extension exploits) and the aggressing thread
//     identified under requestor wins;
//   - a per-cache-line conflict heatmap, resolved through the symbolic
//     labels lock constructors register at allocation time;
//   - a virtual-cycle time series of speculating/serialized occupancy and
//     abort/commit/grant counts per window — the avalanche as a
//     waterfall, not just a throughput dip;
//   - latency histograms for critical-section attempts split by outcome
//     (speculative commit, abort, serialized section).
//
// Everything is deterministic: collectors are fed token-serialized events
// whose order is a pure function of the seed, and every exported slice is
// explicitly ordered (never ranged from a map), so equal seeds produce
// byte-identical profile output — including under host-parallel
// experiment pools, where each point owns a private collector.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Class is an enriched abort classification. It refines the engine's
// tsx.Cause: conflicts are split by whether the conflicting line is lock
// infrastructure, and injector-forced aborts (which the program observes
// as spurious) are attributed separately.
type Class uint8

const (
	// ClassConflictLockLine is a data conflict on a line registered as
	// lock infrastructure (LabelLockLines) — the aborts that seed the
	// paper's avalanche.
	ClassConflictLockLine Class = iota
	// ClassConflictDataLine is a data conflict on any other line.
	ClassConflictDataLine
	// ClassCapacityWrite is a write-set overflow.
	ClassCapacityWrite
	// ClassCapacityRead is a read-set overflow or eviction.
	ClassCapacityRead
	// ClassSpurious is an unexplained abort (tsx.CauseSpurious) not
	// forced by a fault injector.
	ClassSpurious
	// ClassInjected is a spurious abort forced by a fault injector.
	ClassInjected
	// ClassPause is a PAUSE executed transactionally.
	ClassPause
	// ClassExplicit is a software XABORT.
	ClassExplicit
	// ClassHLERestore is a failed XRELEASE restore.
	ClassHLERestore
	// ClassNested is an unsupported nesting combination.
	ClassNested
	// ClassSubscription is a commit-time lock-subscription failure under
	// lazy subscription (tsx.CauseSubscription): the deferred lock check
	// found the lock held. The lazy-subscription trade visible in
	// profiles is conflict-lock-line aborts turning into (fewer of)
	// these.
	ClassSubscription

	// NumClasses is the number of abort classes.
	NumClasses = int(ClassSubscription) + 1
)

var classNames = [NumClasses]string{
	"conflict-lock-line",
	"conflict-data-line",
	"capacity-write",
	"capacity-read",
	"spurious",
	"injected",
	"pause",
	"explicit",
	"hle-restore",
	"nested",
	"subscription",
}

// String returns the class's stable name (used in JSON output).
func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "unknown"
}

// CauseCount is one abort class with its count.
type CauseCount struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
}

// AggressorCount counts conflict aborts of a victim doomed by one
// aggressing thread's coherence request. Thread -1 is a request from
// outside the simulation.
type AggressorCount struct {
	Thread int    `json:"thread"`
	Count  uint64 `json:"count"`
}

// ThreadProfile is the per-thread abort breakdown.
type ThreadProfile struct {
	Thread     int              `json:"thread"`
	Begun      uint64           `json:"begun"`
	Commits    uint64           `json:"commits"`
	Aborts     uint64           `json:"aborts"`
	Causes     []CauseCount     `json:"causes,omitempty"`
	Aggressors []AggressorCount `json:"aggressors,omitempty"`
}

// LineHeat is one entry of the conflict heatmap: conflict aborts whose
// conflicting line this was.
type LineHeat struct {
	Line     int    `json:"line"`
	Label    string `json:"label,omitempty"`
	LockLine bool   `json:"lock_line,omitempty"`
	Count    uint64 `json:"count"`
}

// Window is one time-series sample: activity in virtual cycles
// [Start, Start+WindowCycles).
type Window struct {
	Start uint64 `json:"start"`
	// SpecCycles and SerialCycles sum, over all threads, the virtual
	// cycles spent speculating (inside a transaction) and serialized
	// (inside a MarkSerial region, not speculating) within the window.
	SpecCycles   uint64 `json:"spec_cycles"`
	SerialCycles uint64 `json:"serial_cycles"`
	Commits      uint64 `json:"commits"`
	Aborts       uint64 `json:"aborts"`
	Grants       uint64 `json:"grants"`
}

// HistBucket is one power-of-two latency bucket: Count attempts took
// [Lo, Hi) virtual cycles.
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Histogram is the latency distribution of critical-section attempts with
// one outcome: "commit" (speculative success), "abort" (speculation
// wasted), or "serial" (executed under a really-held lock).
type Histogram struct {
	Outcome string       `json:"outcome"`
	Count   uint64       `json:"count"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// ControllerEvent is one adaptive-controller scheme transition, stamped
// into a Profile by the harness when the profiled scheme is adaptive. The
// fields mirror adapt.Transition; they live here (as plain strings and
// clocks) so the profile pipeline carries transition logs without obs
// depending on the controller package.
type ControllerEvent struct {
	// Seq orders the transitions; Window is the feed window whose stats
	// triggered the decision, Clock its closing virtual cycle.
	Seq    int    `json:"seq"`
	Window int    `json:"window"`
	Clock  uint64 `json:"clock"`
	// From and To are level names ("elide", "scm", "serial").
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is the decision rule that fired ("abort-pressure",
	// "serial-pressure", "capacity", "recovered").
	Reason string `json:"reason"`
	// SwapClock is when the scheme began routing new critical sections
	// to the new level; DrainClock is when the last in-flight section
	// still running under the old level finished (equal to SwapClock
	// when nothing was in flight). Inflight counts the drained sections.
	SwapClock  uint64 `json:"swap_clock"`
	DrainClock uint64 `json:"drain_clock"`
	Inflight   int    `json:"inflight"`
}

// Profile is a collector's exported result. All slices are explicitly
// ordered, so marshaling a Profile is deterministic.
type Profile struct {
	// Label names what was profiled (the harness stamps the scheme name).
	Label string `json:"label,omitempty"`
	// Procs is the highest simulated thread count observed.
	Procs int `json:"procs"`
	// WindowCycles is the time-series sampling window.
	WindowCycles uint64 `json:"window_cycles"`

	TotalBegun   uint64 `json:"total_begun"`
	TotalCommits uint64 `json:"total_commits"`
	TotalAborts  uint64 `json:"total_aborts"`
	// EngineAborts is the abort total reported by the engine's own
	// tsx.Stats counters for the profiled run, stamped by the harness.
	// The attribution invariant — every abort classified exactly once —
	// is checked as sum(Causes) == TotalAborts == EngineAborts.
	EngineAborts uint64 `json:"engine_aborts,omitempty"`

	Causes     []CauseCount     `json:"causes,omitempty"`
	Aggressors []AggressorCount `json:"aggressors,omitempty"`
	Threads    []ThreadProfile  `json:"threads,omitempty"`
	Lines      []LineHeat       `json:"lines,omitempty"`
	Timeline   []Window         `json:"timeline,omitempty"`
	Latency    []Histogram      `json:"latency,omitempty"`
	// Controller is the adaptive scheme-transition log, present only when
	// the profiled scheme is hle.Adaptive.
	Controller []ControllerEvent `json:"controller,omitempty"`

	// prefixes groups every line the collector counted by label prefix,
	// including lines cut from Lines by TopLines (see HeatByPrefix).
	prefixes []PrefixHeat
}

// JSON renders the profile as indented JSON. Equal seeds yield
// byte-identical output.
func (p *Profile) JSON() []byte {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic("obs: marshal profile: " + err.Error())
	}
	return append(out, '\n')
}

// causeCount returns the count for a class name, or 0.
func causeCount(cs []CauseCount, class string) uint64 {
	for _, c := range cs {
		if c.Class == class {
			return c.Count
		}
	}
	return 0
}

// Cause returns the profile's abort count for one class (0 when the class
// never fired).
func (p *Profile) Cause(class Class) uint64 {
	return causeCount(p.Causes, class.String())
}

// CauseSum sums the per-cause counts; the attribution invariant requires
// it to equal TotalAborts.
func (p *Profile) CauseSum() uint64 {
	var n uint64
	for _, c := range p.Causes {
		n += c.Count
	}
	return n
}

func causesFromCounts(counts *[NumClasses]uint64) []CauseCount {
	var out []CauseCount
	for i, n := range counts {
		if n > 0 {
			out = append(out, CauseCount{Class: classNames[i], Count: n})
		}
	}
	return out
}

// aggressorsFromMap orders by count descending, ties by thread ascending.
func aggressorsFromMap(m map[int]uint64) []AggressorCount {
	out := make([]AggressorCount, 0, len(m))
	for th, n := range m {
		out = append(out, AggressorCount{Thread: th, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Thread < out[j].Thread
	})
	return out
}

// sortLines orders hottest first, ties by line index.
func sortLines(ls []LineHeat) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Count != ls[j].Count {
			return ls[i].Count > ls[j].Count
		}
		return ls[i].Line < ls[j].Line
	})
}

// bar renders n/max as a fixed-width ASCII bar.
func bar(n, max uint64, width int) string {
	if max == 0 {
		return strings.Repeat(".", width)
	}
	fill := int(n * uint64(width) / max)
	if fill > width {
		fill = width
	}
	if fill == 0 && n > 0 {
		fill = 1
	}
	return strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
}

// Text renders the full profile as aligned text: summary, cause
// breakdown, per-thread table, heatmap, waterfall, and latency
// histograms.
func (p *Profile) Text() string {
	var b strings.Builder
	label := p.Label
	if label == "" {
		label = "(unlabeled)"
	}
	fmt.Fprintf(&b, "profile %s: procs=%d begun=%d committed=%d aborted=%d\n",
		label, p.Procs, p.TotalBegun, p.TotalCommits, p.TotalAborts)

	if len(p.Causes) > 0 {
		b.WriteString("\nabort causes:\n")
		for _, c := range p.Causes {
			pct := 100 * float64(c.Count) / float64(p.TotalAborts)
			fmt.Fprintf(&b, "  %-20s %10d  %5.1f%%\n", c.Class, c.Count, pct)
		}
	}
	if len(p.Aggressors) > 0 {
		b.WriteString("\nconflict aggressors (requestor wins — who doomed the victim):\n")
		for _, ag := range p.Aggressors {
			who := fmt.Sprintf("thread %d", ag.Thread)
			if ag.Thread < 0 {
				who = "external"
			}
			fmt.Fprintf(&b, "  %-10s %10d\n", who, ag.Count)
		}
	}
	if len(p.Threads) > 0 {
		b.WriteString("\nper-thread:\n")
		fmt.Fprintf(&b, "  %6s %10s %10s %10s  %s\n",
			"thread", "begun", "commits", "aborts", "top cause")
		for _, t := range p.Threads {
			top := ""
			var topN uint64
			for _, c := range t.Causes {
				if c.Count > topN {
					topN = c.Count
					top = c.Class
				}
			}
			fmt.Fprintf(&b, "  %6d %10d %10d %10d  %s\n",
				t.Thread, t.Begun, t.Commits, t.Aborts, top)
		}
	}
	if len(p.Controller) > 0 {
		b.WriteString("\nadaptive controller transitions:\n")
		fmt.Fprintf(&b, "  %4s %8s %12s  %-6s %2s %-6s  %-16s %10s %8s\n",
			"seq", "window", "clock", "from", "", "to", "reason", "drain@", "inflight")
		for _, ev := range p.Controller {
			fmt.Fprintf(&b, "  %4d %8d %12d  %-6s -> %-6s  %-16s %10d %8d\n",
				ev.Seq, ev.Window, ev.Clock, ev.From, ev.To, ev.Reason,
				ev.DrainClock, ev.Inflight)
		}
	}
	b.WriteString(p.HeatmapText())
	b.WriteString(p.Waterfall())
	if len(p.Latency) > 0 {
		b.WriteString("\nattempt latency (virtual cycles, log2 buckets):\n")
		for _, h := range p.Latency {
			fmt.Fprintf(&b, "  %s (%d):\n", h.Outcome, h.Count)
			var max uint64
			for _, bk := range h.Buckets {
				if bk.Count > max {
					max = bk.Count
				}
			}
			for _, bk := range h.Buckets {
				fmt.Fprintf(&b, "    [%8d, %8d) %-24s %d\n",
					bk.Lo, bk.Hi, bar(bk.Count, max, 24), bk.Count)
			}
		}
	}
	return b.String()
}

// PrefixHeat aggregates conflict aborts by label prefix — the text
// before the first '/' in a line's label. Construction code that labels
// each instance of a structure with a distinct prefix (the sharded
// store's "s03/mcs-tail", "s03/size") gets its conflicts attributed per
// instance here, the per-shard abort attribution behind hot-shard
// heatmaps.
type PrefixHeat struct {
	// Prefix is the label group: the text before the first '/', the
	// whole label when it has no '/', or "?" for unlabeled data lines —
	// unlabeled heat is bucketed, never dropped, so a layout pass
	// consuming the grouping cannot silently miss hot anonymous lines.
	Prefix string `json:"prefix"`
	// Count is the group's conflict aborts; LockCount is the subset on
	// lines registered as lock infrastructure.
	Count     uint64 `json:"count"`
	LockCount uint64 `json:"lock_count,omitempty"`
}

// HeatByPrefix groups the conflict heatmap by label prefix, ordered by
// count descending then prefix ascending (deterministic for equal
// seeds, like every profile slice). A collector's profile groups every
// conflicting line the collector counted, not only the TopLines hottest
// kept in Lines; a profile built any other way groups its Lines.
func (p *Profile) HeatByPrefix() []PrefixHeat {
	if p.prefixes != nil {
		return p.prefixes
	}
	return groupByPrefix(p.Lines)
}

// groupByPrefix is HeatByPrefix over lines.
func groupByPrefix(lines []LineHeat) []PrefixHeat {
	byPrefix := make(map[string]*PrefixHeat)
	var order []string
	for _, l := range lines {
		prefix := l.Label
		if i := strings.IndexByte(prefix, '/'); i >= 0 {
			prefix = prefix[:i]
		}
		if prefix == "" {
			prefix = "?"
		}
		g, ok := byPrefix[prefix]
		if !ok {
			g = &PrefixHeat{Prefix: prefix}
			byPrefix[prefix] = g
			order = append(order, prefix)
		}
		g.Count += l.Count
		if l.LockLine {
			g.LockCount += l.Count
		}
	}
	out := make([]PrefixHeat, 0, len(order))
	for _, prefix := range order {
		out = append(out, *byPrefix[prefix])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out
}

// HeatmapText renders the conflict heatmap section.
func (p *Profile) HeatmapText() string {
	if len(p.Lines) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\nhot lines (conflict aborts per cache line):\n")
	max := p.Lines[0].Count
	for _, l := range p.Lines {
		name := l.Label
		if name == "" {
			name = "(data)"
		}
		if l.LockLine {
			name += " [lock]"
		}
		fmt.Fprintf(&b, "  line %6d %-28s %-24s %d\n",
			l.Line, name, bar(l.Count, max, 24), l.Count)
	}
	return b.String()
}

// Waterfall renders the occupancy time series: per window, how much of
// the machine was speculating vs serialized, and the abort/commit counts.
// This is the avalanche made visible — under a fair lock the spec column
// collapses and the serial column saturates.
func (p *Profile) Waterfall() string {
	if len(p.Timeline) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\nwaterfall (occupancy per window; # = share of thread-cycles):\n")
	fmt.Fprintf(&b, "  %12s  %-16s %-16s %8s %8s %8s\n",
		"cycles", "speculating", "serialized", "commits", "aborts", "grants")
	denom := p.WindowCycles * uint64(p.Procs)
	for _, w := range p.Timeline {
		fmt.Fprintf(&b, "  %12d  %-16s %-16s %8d %8d %8d\n",
			w.Start, bar(w.SpecCycles, denom, 16), bar(w.SerialCycles, denom, 16),
			w.Commits, w.Aborts, w.Grants)
	}
	return b.String()
}
