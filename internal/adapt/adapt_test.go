package adapt

import (
	"strings"
	"testing"

	"hle/internal/obs"
)

// testConfig is a small, readable tuning for driving the state machine by
// hand: short streaks, dwell, and probation. ProbationWindows is larger
// than PromoteWindows so the embargo is observable (it must outlast the
// streak a promotion needs).
func testConfig() Config {
	return Config{
		WindowCycles:     100,
		DemotePct:        50,
		SerialDemotePct:  80,
		PromotePct:       10,
		CapacityPct:      50,
		DemoteWindows:    2,
		PromoteWindows:   2,
		DwellWindows:     2,
		ProbationWindows: 4,
		ProbationMax:     8,
		ProbationReset:   16,
		MinOps:           1,
	}
}

// Window builders. Events are sized so the integer percentages are exact.
func goodWin(idx int) obs.WindowStats {
	return obs.WindowStats{Index: idx, Commits: 100}
}
func badWin(idx int) obs.WindowStats {
	return obs.WindowStats{Index: idx, Commits: 40, Aborts: 60, DataLine: 60}
}
func capacityWin(idx int) obs.WindowStats {
	// 20% aborts — under DemotePct — but capacity-dominated.
	return obs.WindowStats{Index: idx, Commits: 80, Aborts: 20, Capacity: 20}
}
func serialWin(idx int) obs.WindowStats {
	// Aborts moderate, speculation collapsed: 90% of ops non-speculative.
	return obs.WindowStats{Index: idx, Commits: 10, Serial: 90, Aborts: 20, LockLine: 20}
}
func quietWin(idx int) obs.WindowStats {
	return obs.WindowStats{Index: idx}
}

// feedN feeds n consecutive windows built by mk and acknowledges every
// decision immediately (nothing in flight), the way an executing scheme
// with idle threads would.
func feedN(c *Controller, n int, mk func(int) obs.WindowStats) {
	for i := 0; i < n; i++ {
		w := mk(c.Windows())
		c.Observe(w)
		if c.Draining() {
			c.NoteSwap(uint64(w.Index+1)*100, 0)
		}
	}
}

func TestControllerDemotionHysteresis(t *testing.T) {
	c := NewController(testConfig())
	if c.Level() != Elide {
		t.Fatalf("start level %v, want Elide", c.Level())
	}
	// One bad window is not enough (DemoteWindows=2).
	feedN(c, 1, badWin)
	if c.Level() != Elide {
		t.Fatalf("demoted after a single bad window")
	}
	// A good window resets the streak; another lone bad window must not
	// demote either.
	feedN(c, 1, goodWin)
	feedN(c, 1, badWin)
	if c.Level() != Elide {
		t.Fatalf("streak survived an intervening good window")
	}
	// Two consecutive bad windows demote one rung.
	feedN(c, 1, badWin)
	if c.Level() != SCM {
		t.Fatalf("level %v after demotion streak, want SCM", c.Level())
	}
	tr := c.Transitions()
	if len(tr) != 1 || tr[0].From != Elide || tr[0].To != SCM || tr[0].Reason != "abort-pressure" {
		t.Fatalf("transition log wrong: %v", tr)
	}
}

func TestControllerDwellBlocksBackToBackSwitches(t *testing.T) {
	c := NewController(testConfig())
	feedN(c, 2, badWin) // demote at the second bad window
	if c.Level() != SCM {
		t.Fatalf("setup: want SCM, got %v", c.Level())
	}
	// The window right after a switch cannot demote again: the dwell
	// minimum (2) has not elapsed, whatever the evidence.
	feedN(c, 1, badWin)
	if c.Level() != SCM {
		t.Fatalf("demoted during dwell")
	}
	feedN(c, 1, badWin)
	if c.Level() != Serial {
		t.Fatalf("dwell over and streak complete, want Serial, got %v", c.Level())
	}
}

func TestControllerSerialPressureDemotes(t *testing.T) {
	c := NewController(testConfig())
	feedN(c, 2, serialWin)
	if c.Level() != SCM {
		t.Fatalf("serial-pressure did not demote: %v", c.Level())
	}
	if tr := c.Transitions(); tr[0].Reason != "serial-pressure" {
		t.Fatalf("reason %q, want serial-pressure", tr[0].Reason)
	}
}

func TestControllerCapacitySkipsToSerial(t *testing.T) {
	c := NewController(testConfig())
	feedN(c, 2, capacityWin)
	if c.Level() != Serial {
		t.Fatalf("capacity-dominated mix did not skip to Serial: %v", c.Level())
	}
	tr := c.Transitions()
	if len(tr) != 1 || tr[0].Reason != "capacity" || tr[0].From != Elide {
		t.Fatalf("capacity transition wrong: %v", tr)
	}
}

func TestControllerPromotionAndProbation(t *testing.T) {
	c := NewController(testConfig())
	feedN(c, 2, badWin) // Elide -> SCM; 4-window promotion embargo starts
	if c.Level() != SCM {
		t.Fatalf("setup: want SCM")
	}
	// Two good windows build a full promotion streak, but the embargo
	// still has windows left: no promotion yet.
	feedN(c, 2, goodWin)
	if c.Level() != SCM {
		t.Fatalf("promoted during probation embargo")
	}
	// Once the embargo expires the (by now longer) streak promotes.
	feedN(c, 2, goodWin)
	if c.Level() != Elide {
		t.Fatalf("did not promote after probation: %v", c.Level())
	}
	if tr := c.Transitions(); tr[len(tr)-1].Reason != "recovered" {
		t.Fatalf("promotion reason wrong: %v", tr)
	}
}

func TestControllerProbationDoublesAndCaps(t *testing.T) {
	cfg := testConfig() // ProbationWindows 4, ProbationMax 8
	c := NewController(cfg)
	if c.probation != cfg.ProbationWindows {
		t.Fatalf("fresh probation %d, want %d", c.probation, cfg.ProbationWindows)
	}
	feedN(c, 2, badWin) // Elide -> SCM
	if c.probationTB != 4 || c.probation != 8 {
		t.Fatalf("after first demotion: embargo %d, next %d; want 4 and 8",
			c.probationTB, c.probation)
	}
	feedN(c, 2, badWin) // SCM -> Serial once dwell elapses
	if c.Level() != Serial {
		t.Fatalf("setup: want Serial, got %v", c.Level())
	}
	if c.probationTB != 8 || c.probation != 8 {
		t.Fatalf("after second demotion: embargo %d, next %d; want both capped at 8",
			c.probationTB, c.probation)
	}
}

func TestControllerProbationResets(t *testing.T) {
	cfg := testConfig()
	c := NewController(cfg)
	feedN(c, 10, badWin) // down to Serial; probation grew to the cap
	if c.probation == cfg.ProbationWindows {
		t.Fatalf("setup: probation did not grow")
	}
	// ProbationReset demotion-free windows forgive past instability (the
	// controller also climbs back to Elide along the way).
	feedN(c, 40, goodWin)
	if c.Level() != Elide {
		t.Fatalf("did not recover to Elide: %v", c.Level())
	}
	if c.probation != cfg.ProbationWindows {
		t.Fatalf("probation %d after reset stretch, want base %d",
			c.probation, cfg.ProbationWindows)
	}
}

func TestControllerQuietWindowsHoldStreaks(t *testing.T) {
	cfg := testConfig()
	cfg.MinOps = 4
	c := NewController(cfg)
	feedN(c, 1, badWin)
	// Quiet windows advance dwell/probation clocks but do not touch the
	// evidence streaks in either direction.
	feedN(c, 3, quietWin)
	feedN(c, 1, badWin)
	if c.Level() != SCM {
		t.Fatalf("quiet windows broke the demotion streak: %v", c.Level())
	}
}

func TestControllerFloorIgnoresSelfInflictedAborts(t *testing.T) {
	// At the Serial floor the full abort share stays high — every probe
	// that loses to the serial path dies explicitly at the entry check or
	// on the lock line — but the hard share is near zero. The controller
	// must read that as health and promote; counting the floor's
	// self-inflicted aborts would blind it forever.
	cfg := testConfig()
	cfg.Start = Serial
	c := NewController(cfg)
	floor := func(idx int) obs.WindowStats {
		return obs.WindowStats{
			Index: idx, Commits: 5, Serial: 45,
			Aborts: 50, LockLine: 30, Explicit: 20,
		}
	}
	feedN(c, 2, floor)
	if c.Level() != SCM {
		t.Fatalf("floor did not promote despite zero hard aborts: %v", c.Transitions())
	}
	if tr := c.Transitions(); tr[0].Reason != "recovered" {
		t.Fatalf("promotion reason wrong: %v", tr)
	}
}

func TestControllerNoDecisionWhileDraining(t *testing.T) {
	c := NewController(testConfig())
	c.Observe(badWin(0))
	c.Observe(badWin(1)) // decides Elide -> SCM
	if !c.Draining() {
		t.Fatalf("decided transition not marked draining")
	}
	// Swap observed with sections still in flight: decisions stay blocked
	// until NoteDrained, no matter the evidence.
	c.NoteSwap(250, 3)
	if !c.Draining() {
		t.Fatalf("NoteSwap with inflight sections cleared the drain")
	}
	for i := 2; i < 8; i++ {
		c.Observe(badWin(i))
	}
	if len(c.Transitions()) != 1 {
		t.Fatalf("decided while draining: %v", c.Transitions())
	}
	c.NoteDrained(900)
	tr := c.Transitions()[0]
	if tr.SwapClock != 250 || tr.DrainClock != 900 || tr.Inflight != 3 {
		t.Fatalf("drain stamps wrong: %+v", tr)
	}
	// With the drain resolved (and the bad streak built up during it),
	// the very next window may decide again.
	feedN(c, 1, badWin)
	if c.Level() != Serial {
		t.Fatalf("decisions still blocked after drain: %v", c.Level())
	}
}

func TestControllerNoteSwapIdleDrainsImmediately(t *testing.T) {
	c := NewController(testConfig())
	feedN(c, 2, badWin) // feedN acknowledges with inflight=0
	if c.Draining() {
		t.Fatalf("swap with nothing in flight left the controller draining")
	}
	tr := c.Transitions()[0]
	if tr.SwapClock == 0 || tr.DrainClock != tr.SwapClock {
		t.Fatalf("idle swap not stamped as instant drain: %+v", tr)
	}
}

func TestConfigValidatePanics(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"DemotePct over 100", func(c *Config) { c.DemotePct = 101 }},
		{"PromotePct above DemotePct", func(c *Config) { c.PromotePct = 60 }},
		{"SerialDemotePct negative", func(c *Config) { c.SerialDemotePct = -1 }},
		{"CapacityPct over 100", func(c *Config) { c.CapacityPct = 150 }},
		{"DemoteWindows negative", func(c *Config) { c.DemoteWindows = -1 }},
		{"ProbationMax below ProbationWindows", func(c *Config) {
			c.ProbationWindows = 6
			c.ProbationMax = 3
		}},
		{"Start out of range", func(c *Config) { c.Start = Level(NumLevels) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic", tc.name)
					return
				}
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "adapt: invalid Config") {
					t.Errorf("%s: unexpected panic %v", tc.name, r)
				}
			}()
			cfg := testConfig()
			tc.mut(&cfg)
			NewController(cfg)
		}()
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		Elide: "elide", SCM: "scm", Serial: "serial", Level(9): "unknown",
	} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
}

// FuzzControllerObserve drives the transition function with arbitrary
// window streams (degenerate counter mixes, quiet windows, interleaved
// drain acknowledgements) and checks the controller's structural
// invariants: the level stays in range, no decision fires while a swap is
// draining, and the transition log chains coherently — consecutive
// entries link From/To, promotions move exactly one rung, and the only
// multi-rung demotions are capacity escalations.
func FuzzControllerObserve(f *testing.F) {
	f.Add(uint64(100), uint64(2), uint64(1), uint64(1), uint64(0), uint64(0), uint16(7))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add(uint64(1<<40), uint64(1<<40), uint64(1<<40), uint64(1<<40),
		uint64(1<<40), uint64(1<<40), uint16(65535))
	f.Fuzz(func(t *testing.T, commits, serial, lockLine, dataLine, capacity, explicit uint64, pattern uint16) {
		c := NewController(Config{WindowCycles: 100})
		// 16 windows; each bit of pattern picks one of two counter mixes.
		// The mixes keep the feed's invariant (class breakdown sums to at
		// most Aborts) while ranging over wildly different shapes.
		for i := 0; i < 16; i++ {
			w := obs.WindowStats{Index: i}
			if pattern&(1<<i) != 0 {
				w.Commits = commits % (1 << 20)
				w.Aborts = (lockLine + dataLine) % (1 << 20)
				w.LockLine = w.Aborts / 2
				w.DataLine = w.Aborts - w.LockLine
			} else {
				w.Serial = serial % (1 << 20)
				w.Aborts = (capacity + explicit) % (1 << 20)
				w.Capacity = w.Aborts / 3
				w.Explicit = w.Aborts - w.Capacity
			}
			before := len(c.Transitions())
			draining := c.Draining()
			c.Observe(w)
			if int(c.Level()) >= NumLevels {
				t.Fatalf("level out of range: %v", c.Level())
			}
			if draining && len(c.Transitions()) != before {
				t.Fatalf("decision fired while draining")
			}
			// Acknowledge most decisions, but sometimes leave one pending
			// across windows to exercise the blocked path.
			if c.Draining() && i%3 != 2 {
				c.NoteSwap(uint64(i+1)*100, int(pattern%4))
				if pattern%4 != 0 {
					c.NoteDrained(uint64(i+1)*100 + 50)
				}
			}
		}
		trs := c.Transitions()
		lvl := Elide
		for i, tr := range trs {
			if tr.Seq != i {
				t.Fatalf("transition %d has Seq %d", i, tr.Seq)
			}
			if tr.From != lvl {
				t.Fatalf("transition %d From %v, want chain from %v", i, tr.From, lvl)
			}
			if tr.From == tr.To {
				t.Fatalf("self-transition: %+v", tr)
			}
			if tr.To > tr.From { // demotion
				if tr.To != tr.From+1 && tr.Reason != "capacity" {
					t.Fatalf("multi-rung non-capacity demotion: %+v", tr)
				}
			} else if tr.To != tr.From-1 {
				t.Fatalf("multi-rung promotion: %+v", tr)
			}
			lvl = tr.To
		}
		if lvl != c.Level() {
			t.Fatalf("log ends at %v but level is %v", lvl, c.Level())
		}
	})
}
