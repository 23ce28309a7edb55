package sim

import (
	"fmt"
	"testing"
)

// BenchmarkStepYield measures the scheduler handoff itself: with Quantum 1
// and unit step costs, nearly every Step exhausts its grant and passes the
// token, so ns/op approximates the cost of one pick-and-switch handoff.
// switches/grant is the coroutine switches per grant (one per handoff, plus
// the procs' starts and finishes); served/grant is the share of grants
// served in place (none here: no proc parks).
func BenchmarkStepYield(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			steps := b.N/n + 1
			grants, served, switches := Grants(), ServedGrants(), Switches()
			b.ResetTimer()
			Run(Config{Seed: 1, Quantum: 1}, n, func(p *Proc) {
				for i := 0; i < steps; i++ {
					p.Step(1)
				}
			})
			b.StopTimer()
			grants = Grants() - grants
			b.ReportMetric(float64(ServedGrants()-served)/float64(grants), "served/grant")
			b.ReportMetric(float64(Switches()-switches)/float64(grants), "switches/grant")
		})
	}
}

// BenchmarkStepSole measures Step when a sole proc holds an unbounded
// grant: the no-yield fast path every uncontended access takes.
func BenchmarkStepSole(b *testing.B) {
	Run(Config{Seed: 1}, 1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Step(1)
		}
	})
}

// BenchmarkStepSoleWatchdog measures the sole-runner path with an armed
// watchdog: grants must stay finite, so the proc re-enters the scheduler
// every quantum — the self-grant case, which costs no coroutine switch.
func BenchmarkStepSoleWatchdog(b *testing.B) {
	Run(Config{Seed: 1, Watchdog: func(uint64) bool { return false }}, 1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Step(1)
		}
	})
}
