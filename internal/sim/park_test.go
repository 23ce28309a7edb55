package sim

import "testing"

// wordWait is a test Waiter in the shape of tsx's spin wait: a "load" of
// one cycle after which the word is read, then a two-cycle "pause", until
// the word no longer holds val.
type wordWait struct {
	p      *Proc
	word   *uint64
	val    uint64
	loaded bool
}

func (w *wordWait) Advance() bool {
	for {
		if w.loaded {
			w.loaded = false
			if *w.word != w.val {
				return true
			}
			if w.p.Tick(2) {
				return false
			}
		}
		w.loaded = true
		if w.p.Tick(1) {
			return false
		}
	}
}

// waitWhile waits until *word != val: parked on a wordWait when park is
// set, otherwise as the literal loop the wait stands for.
func waitWhile(p *Proc, word *uint64, val uint64, park bool) {
	if !park {
		for {
			p.Step(1)
			if *word != val {
				return
			}
			p.Step(2)
		}
	}
	w := &wordWait{p: p, word: word, val: val}
	if !w.Advance() {
		p.Park(w)
	}
}

// lockBody returns a body in which every proc takes a test-and-test-and-set
// lock iters times (iters < 0: forever) and holds it for a few steps, its
// waits parked or literal.
func lockBody(park bool, iters int) func(p *Proc) {
	var lock uint64
	return func(p *Proc) {
		for i := 0; iters < 0 || i < iters; i++ {
			for {
				waitWhile(p, &lock, 1, park)
				p.Step(4) // the swap
				if lock == 0 {
					lock = 1
					break
				}
			}
			for k := 0; k < 3+p.ID; k++ {
				p.Step(uint64(1 + k%3))
			}
			lock = 0
			p.Step(2)
		}
	}
}

// TestParkedWaitKeepsSchedule: a wait parked on a Waiter, whose grants are
// served in place, produces exactly the schedule of the literal loop it
// stands for — every grant, every clock, every stop — under the default
// policy, an armed watchdog and its stop cascade, a skewing grant hook and
// a step-counted strategy; and it does serve grants in place.
func TestParkedWaitKeepsSchedule(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		n     int
		iters int
	}{
		{"default", Config{Seed: 3}, 4, 40},
		{"quantum-1", Config{Seed: 5, Quantum: 1}, 3, 30},
		{"sole-watchdog", Config{Seed: 7, Watchdog: func(uint64) bool { return false }}, 1, 20},
		{"watchdog-stop", Config{Seed: 9, Watchdog: func(c uint64) bool { return c > 3_000 }}, 4, -1},
		{"grant-skew", Config{Seed: 11, Grant: func(id int, clock, slice uint64) uint64 { return slice*2 + uint64(id) }}, 4, 30},
		{"strategy-steps", Config{Strategy: pickFunc(func(c []Choice) Decision {
			sum := clockSum(c)
			if sum > 6_000 {
				return Decision{Stop: true}
			}
			return Decision{Index: int(sum) % len(c), Steps: 1 + int(sum)%3}
		})}, 3, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			literal := hashSchedule(tc.cfg, tc.n, lockBody(false, tc.iters))
			before := ServedGrants()
			parked := hashSchedule(tc.cfg, tc.n, lockBody(true, tc.iters))
			if parked != literal {
				t.Errorf("schedule hash with parked waits = 0x%016x, literal loop 0x%016x", parked, literal)
			}
			if tc.n > 1 && ServedGrants() == before {
				t.Error("no grant was served in place")
			}
		})
	}
}

// clockSum is the total of the choices' clocks: a stateless strategy that
// keys its decisions on it makes progress whichever proc it picks.
func clockSum(cs []Choice) uint64 {
	var sum uint64
	for _, c := range cs {
		sum += c.Clock
	}
	return sum
}
