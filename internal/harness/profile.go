package harness

import (
	"hle/internal/obs"
	"hle/internal/tsx"
)

// Profiler is the one way an experiment point is profiled. It owns the
// point's collector (internal/obs) and installs it on the machine for each
// measured run only, never for construction, population or validation
// runs. It also stamps the engine's own abort counters, so every exported
// profile is checkable as sum(Causes) == TotalAborts == EngineAborts.
// Successive measured runs (a point's repetitions) accumulate into one
// profile. A nil *Profiler profiles nothing: its Run is m.Run and its
// Profile is nil.
type Profiler struct {
	col          *obs.Collector
	engineAborts uint64
}

// NewProfiler returns a profiler collecting under opt into a profile
// labelled label, or nil when opt is nil.
func NewProfiler(opt *obs.Options, label string) *Profiler {
	if opt == nil {
		return nil
	}
	col := obs.New(*opt)
	col.SetLabel(label)
	return &Profiler{col: col}
}

// Run is m.Run(n, body) with the collector installed for that run alone.
// It removes the collector when the run returns, also when a watchdog
// stopped it, and adds the engine's abort counts of every thread that ran
// to the profile's EngineAborts (a stopped run may leave a thread that
// never started as nil).
func (p *Profiler) Run(m *tsx.Machine, n int, body func(t *tsx.Thread)) []*tsx.Thread {
	if p == nil {
		return m.Run(n, body)
	}
	m.SetObserver(p.col)
	threads := m.Run(n, body)
	m.SetObserver(nil)
	for _, t := range threads {
		if t != nil {
			p.engineAborts += t.Stats.TotalAborts()
		}
	}
	return threads
}

// Profile exports the profile of every measured run so far, stamped with
// the engine's abort total.
func (p *Profiler) Profile() *obs.Profile {
	if p == nil {
		return nil
	}
	prof := p.col.Profile()
	prof.EngineAborts = p.engineAborts
	return prof
}
