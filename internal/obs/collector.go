package obs

import (
	"math/bits"

	"hle/internal/tsx"
)

// Options configures a Collector.
type Options struct {
	// WindowCycles is the time-series sampling window in virtual cycles.
	// Zero selects DefaultWindowCycles.
	WindowCycles uint64
	// TopLines bounds the conflict heatmap to the N hottest lines.
	// Zero selects DefaultTopLines; negative keeps every line.
	TopLines int
	// MaxWindows bounds the time series; activity past the last window
	// accumulates into it. Zero selects DefaultMaxWindows.
	MaxWindows int
}

// Defaults for Options zero fields.
const (
	DefaultWindowCycles = 50_000
	DefaultTopLines     = 16
	DefaultMaxWindows   = 4096
)

func (o Options) withDefaults() Options {
	if o.WindowCycles == 0 {
		o.WindowCycles = DefaultWindowCycles
	}
	if o.TopLines == 0 {
		o.TopLines = DefaultTopLines
	}
	if o.MaxWindows == 0 {
		o.MaxWindows = DefaultMaxWindows
	}
	return o
}

// Thread occupancy modes for the time series.
const (
	modeOther  = iota // not speculating, not serialized
	modeSpec          // inside a transaction
	modeSerial        // inside a MarkSerial region, not speculating
)

// Latency histogram outcomes.
const (
	histCommit = iota
	histAbort
	histSerial
	numHists
)

var histNames = [numHists]string{"commit", "abort", "serial"}

// maxBuckets caps the log2 latency buckets (2^40 cycles ≫ any run).
const maxBuckets = 40

// threadState is the collector's per-thread accumulator. Fixed-size
// arrays keep the callbacks allocation-free.
type threadState struct {
	seen    bool
	begun   uint64
	commits uint64
	aborts  uint64
	classes [NumClasses]uint64
	// aggr[i] counts conflict aborts doomed by thread i; the last slot
	// counts external/unknown aggressors.
	aggr [tsx.MaxProcs + 1]uint64

	hist [numHists][maxBuckets]uint64

	// Occupancy tracking.
	mode        int
	modeSince   uint64
	serialFlag  bool
	serialSince uint64
	// lastClock is the clock of the thread's latest event. Per-thread
	// clocks restart with every machine Run, so an open span is credited
	// only up to the current run's last event, never past it.
	lastClock uint64
}

// Collector implements tsx.Observer, accumulating a Profile for one
// machine. Attach one collector per machine; the host-parallel pool gives
// every point its own machine and its own collector, so collection is
// race-free without locks. Successive Runs on the machine accumulate into
// the same collector: a repeated experiment point is one profile.
type Collector struct {
	opt Options
	m   *tsx.Machine

	label   string
	procs   int
	threads [tsx.MaxProcs]threadState

	windows  []Window
	lineHeat map[int]uint64
}

// New returns a collector with opt's defaults applied. Install it with
// tsx.Machine.SetObserver (or build and install it in one step with Attach).
func New(opt Options) *Collector {
	return &Collector{opt: opt.withDefaults(), lineHeat: make(map[int]uint64)}
}

// Attach builds a collector and installs it on m.
func Attach(m *tsx.Machine, opt Options) *Collector {
	c := New(opt)
	m.SetObserver(c)
	return c
}

// Detach removes the collector from its machine; the accumulated state
// remains readable via Profile.
func (c *Collector) Detach() {
	if c.m != nil && c.m.Observer() == c {
		c.m.SetObserver(nil)
	}
}

// SetLabel names the profile (the harness stamps the scheme name).
func (c *Collector) SetLabel(label string) { c.label = label }

// BindMachine implements tsx.Observer. A collector serves one machine.
func (c *Collector) BindMachine(m *tsx.Machine) {
	if c.m != nil && c.m != m {
		panic("obs: collector attached to a second machine")
	}
	c.m = m
}

func (c *Collector) state(thread int) *threadState {
	ts := &c.threads[thread]
	if !ts.seen {
		ts.seen = true
		if thread+1 > c.procs {
			c.procs = thread + 1
		}
	}
	return ts
}

// window returns the time-series slot covering clock, growing the series
// on demand and clamping to MaxWindows.
func (c *Collector) window(clock uint64) *Window {
	i := int(clock / c.opt.WindowCycles)
	if i >= c.opt.MaxWindows {
		i = c.opt.MaxWindows - 1
	}
	for len(c.windows) <= i {
		c.windows = append(c.windows, Window{
			Start: uint64(len(c.windows)) * c.opt.WindowCycles,
		})
	}
	return &c.windows[i]
}

// addSpan credits [from, to) thread-cycles in mode to the time series.
func (c *Collector) addSpan(mode int, from, to uint64) {
	if mode == modeOther || to <= from {
		return
	}
	w := c.opt.WindowCycles
	for from < to {
		win := c.window(from)
		// The window's nominal end; the clamped last window is open-ended.
		end := win.Start + w
		if int(from/w) >= c.opt.MaxWindows {
			end = to
		}
		if end > to {
			end = to
		}
		if end <= from {
			end = to // defensive: never loop without progress
		}
		switch mode {
		case modeSpec:
			win.SpecCycles += end - from
		case modeSerial:
			win.SerialCycles += end - from
		}
		from = end
	}
}

// setMode transitions a thread's occupancy mode at clock, flushing the
// span spent in the previous mode.
func (c *Collector) setMode(ts *threadState, clock uint64, mode int) {
	ts.lastClock = clock
	if mode == ts.mode {
		return
	}
	c.addSpan(ts.mode, ts.modeSince, clock)
	ts.mode = mode
	ts.modeSince = clock
}

// histAdd records one latency observation in the outcome's log2 buckets.
func (ts *threadState) histAdd(outcome int, cycles uint64) {
	b := bits.Len64(cycles) // bucket b covers [2^(b-1), 2^b)
	if b >= maxBuckets {
		b = maxBuckets - 1
	}
	ts.hist[outcome][b]++
}

// TxBegin implements tsx.Observer.
func (c *Collector) TxBegin(thread int, clock uint64) {
	ts := c.state(thread)
	ts.begun++
	c.setMode(ts, clock, modeSpec)
}

// TxCommit implements tsx.Observer.
func (c *Collector) TxCommit(thread int, clock, begin uint64, accesses int) {
	ts := c.state(thread)
	ts.commits++
	ts.histAdd(histCommit, clock-begin)
	c.window(clock).Commits++
	c.leaveTx(ts, clock)
}

// TxAbort implements tsx.Observer. Every abort increments exactly one
// class counter; the attribution-invariant test rests on that.
func (c *Collector) TxAbort(thread int, clock, begin uint64, cause tsx.Cause,
	line, aggressor int, injected, elided bool) {
	ts := c.state(thread)
	ts.aborts++
	ts.classes[c.classify(cause, line, injected)]++
	if cause == tsx.CauseConflict {
		idx := tsx.MaxProcs // external/unknown
		if aggressor >= 0 && aggressor < tsx.MaxProcs {
			idx = aggressor
		}
		ts.aggr[idx]++
		c.lineHeat[line]++
	}
	ts.histAdd(histAbort, clock-begin)
	c.window(clock).Aborts++
	c.leaveTx(ts, clock)
}

// leaveTx restores the thread's occupancy mode after a transaction ends.
func (c *Collector) leaveTx(ts *threadState, clock uint64) {
	mode := modeOther
	if ts.serialFlag {
		mode = modeSerial
	}
	c.setMode(ts, clock, mode)
}

// classify maps an engine abort to its enriched class by resolving the
// conflicting line against the machine's lock-line registry and deferring
// to the shared ClassOf rule.
func (c *Collector) classify(cause tsx.Cause, line int, injected bool) Class {
	lockLine := cause == tsx.CauseConflict && c.m != nil && c.m.IsLockLine(line)
	return ClassOf(cause, lockLine, injected)
}

// Serial implements tsx.Observer.
func (c *Collector) Serial(thread int, clock uint64, on bool) {
	ts := c.state(thread)
	ts.serialFlag = on
	if on {
		ts.serialSince = clock
	} else {
		ts.histAdd(histSerial, clock-ts.serialSince)
	}
	if ts.mode != modeSpec { // speculation outranks serialization
		mode := modeOther
		if on {
			mode = modeSerial
		}
		c.setMode(ts, clock, mode)
	} else {
		ts.lastClock = clock
	}
}

// Grant implements tsx.Observer.
func (c *Collector) Grant(proc int, clock uint64) {
	c.window(clock).Grants++
}

// Profile exports the collector's accumulated state. Open occupancy spans
// are credited up to each thread's latest event and restarted there, so
// the collector may keep collecting and repeated calls agree. The export
// is deterministic: every slice is explicitly ordered.
func (c *Collector) Profile() *Profile {
	p := &Profile{
		Label:        c.label,
		Procs:        c.procs,
		WindowCycles: c.opt.WindowCycles,
	}

	var causes [NumClasses]uint64
	aggr := make(map[int]uint64)
	var hists [numHists][maxBuckets]uint64

	for id := 0; id < c.procs; id++ {
		ts := &c.threads[id]
		if !ts.seen {
			continue
		}
		// Credit the open occupancy span up to the thread's latest event
		// and restart it there, so a later Profile neither loses nor
		// double-counts it.
		c.addSpan(ts.mode, ts.modeSince, ts.lastClock)
		ts.modeSince = ts.lastClock

		p.TotalBegun += ts.begun
		p.TotalCommits += ts.commits
		p.TotalAborts += ts.aborts

		tp := ThreadProfile{
			Thread:  id,
			Begun:   ts.begun,
			Commits: ts.commits,
			Aborts:  ts.aborts,
		}
		var tc [NumClasses]uint64
		for cl, n := range ts.classes {
			tc[cl] = n
			causes[cl] += n
		}
		tp.Causes = causesFromCounts(&tc)
		ta := make(map[int]uint64)
		for i, n := range ts.aggr {
			if n == 0 {
				continue
			}
			who := i
			if i == tsx.MaxProcs {
				who = -1
			}
			ta[who] += n
			aggr[who] += n
		}
		tp.Aggressors = aggressorsFromMap(ta)
		p.Threads = append(p.Threads, tp)

		for h := 0; h < numHists; h++ {
			for b, n := range ts.hist[h] {
				hists[h][b] += n
			}
		}
	}
	p.Causes = causesFromCounts(&causes)
	p.Aggressors = aggressorsFromMap(aggr)

	// Heatmap: hottest first, bounded to TopLines, labels resolved
	// through the machine's registry.
	lines := make([]LineHeat, 0, len(c.lineHeat))
	for line, n := range c.lineHeat {
		lh := LineHeat{Line: line, Count: n}
		if c.m != nil {
			lh.Label = c.m.LineLabel(line)
			lh.LockLine = c.m.IsLockLine(line)
		}
		lines = append(lines, lh)
	}
	sortLines(lines)
	p.prefixes = groupByPrefix(lines)
	if c.opt.TopLines > 0 && len(lines) > c.opt.TopLines {
		lines = lines[:c.opt.TopLines]
	}
	p.Lines = lines

	p.Timeline = append([]Window(nil), c.windows...)

	for h := 0; h < numHists; h++ {
		hist := Histogram{Outcome: histNames[h]}
		for b, n := range hists[h] {
			if n == 0 {
				continue
			}
			var lo uint64
			if b > 0 {
				lo = 1 << uint(b-1)
			}
			hist.Buckets = append(hist.Buckets,
				HistBucket{Lo: lo, Hi: 1 << uint(b), Count: n})
			hist.Count += n
		}
		if hist.Count > 0 {
			p.Latency = append(p.Latency, hist)
		}
	}
	return p
}
