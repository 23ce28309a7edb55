// Package adapt is the per-lock adaptive scheme controller: a
// deterministic state machine that consumes the windowed abort/commit
// counters of an obs.Feed and decides, per lock, which execution level a
// critical section should run at — full elision, elision with
// software-assisted conflict management, or the pessimistic serializing
// floor. It closes the loop the paper leaves open: every scheme in
// Chapters 3-5 is a static, hand-picked choice per workload point; the
// controller makes the choice at runtime from the abort profile alone.
//
// The decision rule follows the degradation taxonomy of the related work:
// sustained abort pressure or a collapsing speculative fraction demotes
// one rung (the Chapter 3 avalanche signature — SCM can still save it),
// while a capacity-dominated abort mix demotes straight to the serial
// floor — and does so even at moderate abort shares, because no amount of
// conflict management fixes a working set that does not fit the
// speculative buffer and the tax recurs on every affected operation
// (Dice et al.'s malloc-placement study motivates treating capacity as a
// distinct signal). Promotion is the mirror image with hysteresis: the
// hard abort share (data conflicts, capacity, spurious — not explicit
// lock-held aborts or lock-line conflicts, both of which the serial
// floor inflicts on itself while serializing) must stay below a lower
// threshold for several consecutive windows, a
// dwell minimum keeps every level occupied long enough to gather
// evidence, and a capped exponential probation backoff makes repeated
// failed re-promotions progressively rarer so the controller cannot flap.
//
// Everything is integer arithmetic over token-serialized window streams:
// equal seeds produce identical transition logs at any host parallelism.
package adapt

import (
	"fmt"

	"hle/internal/obs"
)

// Level is an execution level the controller can route critical sections
// to, ordered from most to least speculative.
type Level uint8

const (
	// Elide runs critical sections under plain lock elision (the RTM-LE
	// mechanism: speculate with the lock in the read set, one
	// non-speculative acquisition attempt after an abort).
	Elide Level = iota
	// SCM adds software-assisted conflict management (Algorithm 3):
	// aborted threads serialize on an auxiliary lock and rejoin
	// speculation, containing the avalanche.
	SCM
	// Serial is the pessimistic floor: one speculative probe with the
	// lock checked at entry, then non-speculative execution under the
	// main lock. The probe is what lets the controller see the storm
	// end — its hard-abort rate falls when speculation becomes viable
	// again.
	Serial

	// NumLevels is the number of execution levels.
	NumLevels = int(Serial) + 1
)

var levelNames = [NumLevels]string{"elide", "scm", "serial"}

// String returns the level's stable name (used in logs and JSON).
func (l Level) String() string {
	if int(l) < NumLevels {
		return levelNames[l]
	}
	return "unknown"
}

// Config tunes the controller. The zero value selects the defaults; every
// threshold is an integer percentage so decisions are exact and
// fuzz-friendly. Fields left zero take their Default counterpart;
// explicit negatives select "disabled" where documented.
type Config struct {
	// WindowCycles is the feed window size in virtual cycles. The
	// controller makes at most one decision per window.
	WindowCycles uint64

	// DemotePct is the abort share (percent of attempt outcomes in a
	// window) at or above which the window counts toward demotion.
	DemotePct int
	// SerialDemotePct is the non-speculative share (percent of completed
	// operations) at or above which the window counts toward demotion —
	// the avalanche signature, where aborts stay moderate but every
	// operation ends up under the real lock. It only applies above the
	// Serial floor, where the floor's own serialization would trivially
	// trigger it.
	SerialDemotePct int
	// PromotePct is the hard abort share (aborts excluding explicit
	// lock-held ones and lock-line conflicts, as a percent of attempt
	// outcomes) at or below which a window counts toward promotion.
	PromotePct int
	// CapacityPct is the capacity share (percent of the window's aborts)
	// at or above which the mix counts as capacity-dominated: such
	// windows count toward demotion whenever the abort share exceeds the
	// promotion band, and the demotion skips SCM and lands on Serial.
	CapacityPct int

	// DemoteWindows and PromoteWindows are the consecutive qualifying
	// windows required before a transition fires (the hysteresis bands).
	DemoteWindows  int
	PromoteWindows int
	// DwellWindows is the minimum number of windows between any two
	// transitions, so every level is measured before being judged.
	DwellWindows int

	// ProbationWindows is the initial promotion embargo after a
	// demotion; it doubles on every further demotion up to ProbationMax
	// and resets to the base after ProbationReset windows without a
	// demotion. Probation is what turns flapping into exponentially
	// rarer retries.
	ProbationWindows int
	ProbationMax     int
	ProbationReset   int

	// MinOps is the minimum number of attempt outcomes a window needs to
	// update the hysteresis streaks; quieter windows only advance dwell
	// and probation clocks (an idle lock is not evidence of health).
	MinOps int

	// Start is the initial level (default Elide: optimistic).
	Start Level
}

// Defaults for Config zero fields.
const (
	DefaultWindowCycles     = 5_000
	DefaultDemotePct        = 45
	DefaultSerialDemotePct  = 65
	DefaultPromotePct       = 10
	DefaultCapacityPct      = 50
	DefaultDemoteWindows    = 2
	DefaultPromoteWindows   = 3
	DefaultDwellWindows     = 3
	DefaultProbationWindows = 6
	DefaultProbationMax     = 48
	DefaultProbationReset   = 64
	DefaultMinOps           = 4
)

// WithDefaults returns c with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.WindowCycles == 0 {
		c.WindowCycles = DefaultWindowCycles
	}
	if c.DemotePct == 0 {
		c.DemotePct = DefaultDemotePct
	}
	if c.SerialDemotePct == 0 {
		c.SerialDemotePct = DefaultSerialDemotePct
	}
	if c.PromotePct == 0 {
		c.PromotePct = DefaultPromotePct
	}
	if c.CapacityPct == 0 {
		c.CapacityPct = DefaultCapacityPct
	}
	if c.DemoteWindows == 0 {
		c.DemoteWindows = DefaultDemoteWindows
	}
	if c.PromoteWindows == 0 {
		c.PromoteWindows = DefaultPromoteWindows
	}
	if c.DwellWindows == 0 {
		c.DwellWindows = DefaultDwellWindows
	}
	if c.ProbationWindows == 0 {
		c.ProbationWindows = DefaultProbationWindows
	}
	if c.ProbationMax == 0 {
		c.ProbationMax = DefaultProbationMax
	}
	if c.ProbationReset == 0 {
		c.ProbationReset = DefaultProbationReset
	}
	if c.MinOps == 0 {
		c.MinOps = DefaultMinOps
	}
	return c
}

// validate panics on nonsensical tunings; the facade surfaces these as
// constructor misuse.
func (c Config) validate() {
	check := func(ok bool, what string) {
		if !ok {
			panic("adapt: invalid Config: " + what)
		}
	}
	check(c.DemotePct > 0 && c.DemotePct <= 100, "DemotePct outside (0,100]")
	check(c.SerialDemotePct > 0 && c.SerialDemotePct <= 100, "SerialDemotePct outside (0,100]")
	check(c.PromotePct >= 0 && c.PromotePct < c.DemotePct, "PromotePct must be below DemotePct")
	check(c.CapacityPct > 0 && c.CapacityPct <= 100, "CapacityPct outside (0,100]")
	check(c.DemoteWindows > 0, "DemoteWindows < 1")
	check(c.PromoteWindows > 0, "PromoteWindows < 1")
	check(c.DwellWindows >= 0, "DwellWindows < 0")
	check(c.ProbationWindows > 0, "ProbationWindows < 1")
	check(c.ProbationMax >= c.ProbationWindows, "ProbationMax below ProbationWindows")
	check(c.ProbationReset > 0, "ProbationReset < 1")
	check(c.MinOps >= 0, "MinOps < 0")
	check(int(c.Start) < NumLevels, "Start level out of range")
}

// Transition is one controller decision, with the hot-swap bookkeeping
// the executing scheme stamps in as the switch takes effect.
type Transition struct {
	// Seq orders transitions; Window is the feed window whose stats
	// triggered the decision, Clock that window's closing virtual cycle.
	Seq    int
	Window int
	Clock  uint64
	From   Level
	To     Level
	// Reason names the rule that fired: "abort-pressure" (abort share
	// over DemotePct), "serial-pressure" (speculation collapsed),
	// "capacity" (capacity-dominated mix, straight to Serial), or
	// "recovered" (promotion).
	Reason string
	// SwapClock is when the scheme began routing new critical sections
	// to To; DrainClock is when the last in-flight section still running
	// under From finished; Inflight counts the sections that drained.
	SwapClock  uint64
	DrainClock uint64
	Inflight   int
}

func (tr Transition) String() string {
	return fmt.Sprintf("#%d w%d@%d %s->%s (%s, drained %d @%d)",
		tr.Seq, tr.Window, tr.Clock, tr.From, tr.To, tr.Reason,
		tr.Inflight, tr.DrainClock)
}

// Controller is the per-lock decision state machine. Feed it completed
// windows via Observe (typically as the sink of an obs.Feed); the
// executing scheme reads Level after each window and calls
// NoteSwap/NoteDrained as it applies the change. The controller is not
// host-safe: like everything per-machine it runs on token-serialized
// simulated threads.
type Controller struct {
	cfg Config

	level       Level
	badStreak   int
	goodStreak  int
	sinceSwitch int // windows since the last transition
	sinceDemote int // windows since the last demotion
	probation   int // current probation length (doubles per demotion)
	probationTB int // windows of promotion embargo remaining

	windows      int
	levelWindows [NumLevels]int
	transitions  []Transition
	pendingSwap  bool // a decided transition the scheme has not drained yet
}

// NewController builds a controller from cfg (zero fields defaulted).
// Invalid tunings panic.
func NewController(cfg Config) *Controller {
	cfg = cfg.WithDefaults()
	cfg.validate()
	c := &Controller{cfg: cfg}
	c.Reset()
	return c
}

// Reset returns the controller to the state NewController left it in: at
// the start level, with no streaks, no embargo and an empty decision log.
// The tuning is kept.
func (c *Controller) Reset() {
	*c = Controller{cfg: c.cfg, level: c.cfg.Start, probation: c.cfg.ProbationWindows}
}

// Config returns the controller's effective (defaulted) tuning.
func (c *Controller) Config() Config { return c.cfg }

// Level returns the level new critical sections should run at.
func (c *Controller) Level() Level { return c.level }

// Windows returns the number of windows observed.
func (c *Controller) Windows() int { return c.windows }

// LevelWindows returns how many observed windows were spent at each level.
func (c *Controller) LevelWindows() [NumLevels]int { return c.levelWindows }

// Transitions returns the decision log. The slice is live; callers must
// not mutate it.
func (c *Controller) Transitions() []Transition { return c.transitions }

// Observe consumes one completed feed window and possibly changes Level.
// It is the controller's entire transition function — pure integer
// arithmetic over the window's counters and the hysteresis state — which
// is what the fuzz target drives directly.
func (c *Controller) Observe(w obs.WindowStats) {
	c.windows++
	c.levelWindows[c.level]++
	c.sinceSwitch++
	c.sinceDemote++
	if c.probationTB > 0 {
		c.probationTB--
	}
	if c.sinceDemote >= c.cfg.ProbationReset {
		// A long demotion-free stretch forgives past instability.
		c.probation = c.cfg.ProbationWindows
	}

	events := w.Events()
	if events < uint64(c.cfg.MinOps) {
		// Too quiet to judge: dwell and probation advanced above, but
		// the evidence streaks hold.
		return
	}

	abortPct := int(100 * w.Aborts / events)
	serialPct := 0
	if ops := w.Ops(); ops > 0 {
		serialPct = int(100 * w.Serial / ops)
	}
	// Promotion is judged on hard aborts only — data conflicts, capacity,
	// spurious — excluding explicit aborts and lock-line conflicts. Both of
	// those measure serialization overlap rather than speculation health:
	// explicit aborts are the schemes' own lock-held checks, and lock-line
	// conflicts are acquisitions by the serial path landing on the lock
	// word in a speculator's read set. At the Serial floor nearly every
	// probe loses to the floor's own non-speculative executions in exactly
	// these two ways; counting them would let the floor blind itself and
	// never observe a storm ending. (Demotion still counts them: whatever
	// the mechanism, an execution mix that keeps aborting speculation is a
	// bad home for it.)
	hardPct := int(100 * (w.Aborts - w.Explicit - w.LockLine) / events)
	// A capacity-dominated abort mix is evidence against speculation even
	// at moderate abort shares: those aborts recur on every affected
	// operation for as long as the working set stays oversized, so any
	// nontrivial capacity tax (above the promotion band) reads as bad.
	capacityHeavy := w.Aborts > 0 &&
		int(100*w.Capacity/w.Aborts) >= c.cfg.CapacityPct &&
		abortPct > c.cfg.PromotePct

	// Badness is only meaningful where demotion is possible: the Serial
	// floor's own serialization keeps its full abort share permanently
	// high (every probe that loses to the non-speculative path aborts),
	// and letting that count as bad would starve the promotion streak
	// forever. A window that counts toward demotion never simultaneously
	// counts toward promotion.
	bad := c.level < Serial &&
		(abortPct >= c.cfg.DemotePct ||
			serialPct >= c.cfg.SerialDemotePct ||
			capacityHeavy)
	good := hardPct <= c.cfg.PromotePct && !bad
	switch {
	case bad:
		c.badStreak++
		c.goodStreak = 0
	case good:
		c.goodStreak++
		c.badStreak = 0
	default:
		c.badStreak = 0
		c.goodStreak = 0
	}

	// One decision per window, never while a prior swap is still
	// draining, never before the dwell minimum.
	if c.pendingSwap || c.sinceSwitch < c.cfg.DwellWindows {
		return
	}

	if c.badStreak >= c.cfg.DemoteWindows && c.level < Serial {
		target := c.level + 1
		reason := "abort-pressure"
		if abortPct < c.cfg.DemotePct {
			reason = "serial-pressure"
		}
		if capacityHeavy {
			// Capacity-dominated mixes skip SCM: serializing aborters
			// cannot shrink a working set.
			target = Serial
			reason = "capacity"
		}
		c.transitionTo(target, w, reason)
		// Each demotion doubles the re-promotion embargo, capped.
		c.probationTB = c.probation
		c.probation *= 2
		if c.probation > c.cfg.ProbationMax {
			c.probation = c.cfg.ProbationMax
		}
		c.sinceDemote = 0
		return
	}

	if c.goodStreak >= c.cfg.PromoteWindows && c.probationTB == 0 && c.level > Elide {
		c.transitionTo(c.level-1, w, "recovered")
	}
}

// transitionTo records the decision and moves Level; the scheme observes
// the new level at its next critical-section entry and stamps the swap.
func (c *Controller) transitionTo(to Level, w obs.WindowStats, reason string) {
	c.transitions = append(c.transitions, Transition{
		Seq:    len(c.transitions),
		Window: w.Index,
		Clock:  uint64(w.Index+1) * c.cfg.WindowCycles,
		From:   c.level,
		To:     to,
		Reason: reason,
	})
	c.level = to
	c.badStreak = 0
	c.goodStreak = 0
	c.sinceSwitch = 0
	c.pendingSwap = true
}

// NoteSwap stamps the moment the executing scheme started routing new
// critical sections to the decided level, with the number of in-flight
// sections still running under the old level. When nothing was in flight
// the swap drains immediately.
func (c *Controller) NoteSwap(clock uint64, inflight int) {
	if n := len(c.transitions); n > 0 {
		tr := &c.transitions[n-1]
		tr.SwapClock = clock
		tr.Inflight = inflight
		if inflight == 0 {
			tr.DrainClock = clock
			c.pendingSwap = false
		}
	}
}

// NoteDrained stamps the moment the last old-level in-flight section
// finished, unblocking further decisions.
func (c *Controller) NoteDrained(clock uint64) {
	if n := len(c.transitions); n > 0 {
		c.transitions[n-1].DrainClock = clock
	}
	c.pendingSwap = false
}

// Draining reports whether a decided transition is still waiting for
// old-level in-flight sections to finish.
func (c *Controller) Draining() bool { return c.pendingSwap }
