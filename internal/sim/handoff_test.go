package sim

import (
	"fmt"
	"sync"
	"testing"
)

// handoffEvent is one entry of a Run's token log: a grant (from grantHook),
// a served grant's Advance, a body start or a body finish, in the order the
// token holder recorded them.
type handoffEvent struct {
	kind  byte // 'g' grant, 'a' served Advance, 's' body start, 'f' body finish
	id    int
	stop  bool // grant: a stop order
	ended bool // served Advance: the wait ended
}

// loggedWait is a wordWait that logs each Advance the scheduler runs in
// place, off the proc's own coroutine (the wait is parked then).
type loggedWait struct {
	wordWait
	log *[]handoffEvent
}

func (w *loggedWait) Advance() bool {
	served := w.p.wait != nil
	ended := w.wordWait.Advance()
	if served {
		*w.log = append(*w.log, handoffEvent{kind: 'a', id: w.p.ID, ended: ended})
	}
	return ended
}

// expectedSwitches replays a token log: a grant moves the token to its proc
// unless a served Advance that did not end the wait follows it, a move to a
// proc other than the holder costs one switch, and every body that returns
// (or, stopped before it started, never runs) hands the token back to Run's
// goroutine with one more. It also counts the grants that cost nothing.
func expectedSwitches(log []handoffEvent) (switches, selfPicks, served int) {
	cur := -1 // Run's goroutine
	started := map[int]bool{}
	for i, e := range log {
		switch e.kind {
		case 's':
			started[e.id] = true
		case 'f':
			switches++
			cur = -1
		case 'g':
			if i+1 < len(log) && log[i+1].kind == 'a' && !log[i+1].ended {
				served++
				continue
			}
			if e.id == cur {
				selfPicks++
			} else {
				switches++
				cur = e.id
			}
			if e.stop && !started[e.id] {
				switches++
				cur = -1
			}
		}
	}
	return switches, selfPicks, served
}

// TestOneSwitchPerHandoff: a grant that resumes a proc costs exactly one
// coroutine switch, from whichever goroutine holds the token straight to
// the granted proc; a grant served in place to a parked wait and a proc
// that picks itself cost none; and each body costs one switch to start and
// one to hand the token back when it returns.
func TestOneSwitchPerHandoff(t *testing.T) {
	var log []handoffEvent
	steps := func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Step(uint64(1 + (i+p.ID)%3))
		}
	}
	var lock uint64
	parked := func(p *Proc) {
		for i := 0; i < 15; i++ {
			w := &loggedWait{wordWait{p: p, word: &lock, val: 1}, &log}
			if !w.Advance() {
				p.Park(w)
			}
			p.Step(4)
			if lock == 0 {
				lock = 1
				p.Step(uint64(3 + p.ID))
				lock = 0
			}
			p.Step(2)
		}
	}
	cases := []struct {
		name               string
		cfg                Config
		n                  int
		body               func(p *Proc)
		wantSelf, wantServ bool
		wantPanic          bool
	}{
		{"quantum-1", Config{Seed: 1, Quantum: 1}, 4, steps, false, false, false},
		{"sole-watchdog", Config{Seed: 2, Watchdog: func(uint64) bool { return false }}, 1, steps, true, false, false},
		{"parked", Config{Seed: 3}, 4, parked, false, true, false},
		{"parked-watchdog-stop", Config{Seed: 4, Watchdog: func(c uint64) bool { return c > 150 }}, 4, parked, false, true, false},
		{"strategy-self", Config{Strategy: pickFunc(func(c []Choice) Decision {
			sum := clockSum(c)
			return Decision{Index: int(sum/5) % len(c), Steps: 1}
		})}, 3, steps, true, false, false},
		{"strategy-stop-before-start", Config{Strategy: pickFunc(func(c []Choice) Decision {
			if clockSum(c) > 20 {
				return Decision{Stop: true}
			}
			return Decision{Index: 0, Target: c[0].Clock + 1}
		})}, 3, steps, true, false, false},
		{"body-panic", Config{Seed: 5}, 3, func(p *Proc) {
			p.Step(5)
			if p.ID == 1 {
				panic("boom")
			}
			steps(p)
		}, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log, lock = log[:0], 0
			grantHook = func(id int, _ uint64, stop bool) {
				log = append(log, handoffEvent{kind: 'g', id: id, stop: stop})
			}
			defer func() { grantHook = nil }()
			body := func(p *Proc) {
				log = append(log, handoffEvent{kind: 's', id: p.ID})
				defer func() { log = append(log, handoffEvent{kind: 'f', id: p.ID}) }()
				tc.body(p)
			}
			before, grantsBefore, servedBefore := Switches(), Grants(), ServedGrants()
			func() {
				defer func() {
					if r := recover(); (r != nil) != tc.wantPanic {
						t.Errorf("Run panicked with %v, want a panic: %v", r, tc.wantPanic)
					}
				}()
				Run(tc.cfg, tc.n, body)
			}()
			want, self, served := expectedSwitches(log)
			if got := Switches() - before; got != uint64(want) {
				t.Errorf("%d coroutine switches, want %d (%d grants, %d served in place, %d self-picks)",
					got, want, Grants()-grantsBefore, served, self)
			}
			if got := ServedGrants() - servedBefore; got < uint64(served) {
				t.Errorf("%d grants served in place, the log shows %d served with no switch", got, served)
			}
			if tc.wantSelf && self == 0 {
				t.Error("no proc picked itself")
			}
			if tc.wantServ && served == 0 {
				t.Error("no grant was served in place")
			}
		})
	}
	// The closed form for the simplest case: a sole proc under an armed
	// watchdog picks itself for every grant after the first.
	before, grants := Switches(), Grants()
	Run(Config{Seed: 6, Watchdog: func(uint64) bool { return false }}, 1, steps)
	if got := Switches() - before; got != 2 || Grants()-grants < 2 {
		t.Errorf("sole proc: %d switches over %d grants, want 2 (start and finish)", got, Grants()-grants)
	}
}

// TestCrossRunnerHandoffs: two host goroutines run many Runs at once, with
// 2–8 procs each, mixing finishes, watchdog and strategy stop orders, parked
// waits and body panics, so the coroutines that the pool hands between the
// two keep being parked in each other's Pulls. Every body checks, after
// every handoff, that its clock moved only by its own Steps or its wait's
// Ticks and that its stack locals survived, and before every handoff, that
// no other proc of its Run ran while it held the token. Afterwards the pool
// holds what it held before and no goroutine is left behind. A worker
// pooled before it has parked, or two goroutines resuming through one Pull,
// fails here.
func TestCrossRunnerHandoffs(t *testing.T) {
	const hosts, runs = 2, 150
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	// The host goroutines are counted on both sides of the check: they
	// start before the counts are taken and exit only after the check.
	start, checked := make(chan struct{}), make(chan struct{})
	defer close(checked)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer func() { <-checked }()
			defer wg.Done()
			<-start
			var r Runner
			for k := 0; k < runs; k++ {
				n := 2 + (k+h)%7
				kind := (k + 3*h) % 5
				var holder int
				var lock uint64
				cfg := Config{Seed: int64(100*h + k)}
				switch kind {
				case 1:
					cfg.Watchdog = func(c uint64) bool { return c > 400 }
				case 4:
					cfg.Strategy = pickFunc(func(c []Choice) Decision {
						sum := clockSum(c)
						if sum > uint64(60*len(c)) {
							return Decision{Stop: true}
						}
						return Decision{Index: int(sum) % len(c), Steps: 1 + int(sum)%3}
					})
				}
				body := func(p *Proc) {
					id := p.ID
					var locals [6]uint64
					for i := range locals {
						locals[i] = uint64(h*1_000_000 + k*1_000 + id*10 + i)
					}
					clock := p.Clock()
					holder = id
					// resumed runs on the token: it checks the body's
					// locals and claims the token for the proc.
					resumed := func(where string, i int) {
						for j, v := range locals {
							if v != uint64(h*1_000_000+k*1_000+id*10+j) {
								fail("host %d run %d proc %d %s %d: local %d = %d", h, k, id, where, i, j, v)
							}
						}
						if p.ID != id {
							fail("host %d run %d proc %d %s %d: running as proc %d", h, k, id, where, i, p.ID)
						}
						holder = id
					}
					// yielding runs just before a possible handoff.
					yielding := func(where string, i int) {
						if holder != id {
							fail("host %d run %d proc %d %s %d: proc %d ran on its token", h, k, id, where, i, holder)
						}
					}
					step := func(cost uint64, i int) {
						yielding("step", i)
						p.Step(cost)
						resumed("after step", i)
						if clock += cost; p.Clock() != clock {
							fail("host %d run %d proc %d step %d: clock %d, want %d", h, k, id, i, p.Clock(), clock)
						}
					}
					for i := 0; kind == 1 || i < 30; i++ {
						step(uint64(1+(i+id)%4), i)
						if kind == 2 && i%5 == 0 {
							yielding("wait", i)
							waitWhile(p, &lock, 1, true)
							resumed("after wait", i)
							if p.Clock() < clock {
								fail("host %d run %d proc %d wait %d: clock went back from %d to %d", h, k, id, i, clock, p.Clock())
							}
							clock = p.Clock()
							lock = 1
							step(3, i)
							lock = 0
						}
						if kind == 3 && id == 1 && i == 7 {
							panic("boom")
						}
					}
				}
				var got any
				func() {
					defer func() { got = recover() }()
					r.Run(cfg, n, body)
				}()
				if (got != nil) != (kind == 3) {
					fail("host %d run %d (kind %d): Run panicked with %v", h, k, kind, got)
				}
			}
		}(h)
	}
	goroutines, parked := poolCounts(hosts * 8)
	served := ServedGrants()
	close(start)
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if ServedGrants() == served {
		t.Error("no grant was served in place")
	}
	checkPoolCounts(t, goroutines, parked)
}
