package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/stats"
	"hle/internal/tsx"
)

// Fig21 reproduces Figure 2.1: a single thread runs transactions that read
// (or write) every cache line of an array of a given size, and we report
// the fraction of transactions that fail. The write curve must hit a wall
// at the 32 KB L1; the read curve survives past the L2 into the megabytes
// before eviction failures take over; and both show a small spurious-abort
// floor even for tiny sets.
func Fig21(o Options) []*stats.Table {
	o = o.withDefaults()
	sizesBytes := []int{128, 512, 2 << 10, 8 << 10, 32 << 10, 128 << 10,
		512 << 10, 2 << 20, 4 << 20, 6 << 20, 8 << 20}
	reps := 3000
	if o.Quick {
		sizesBytes = []int{128, 8 << 10, 32 << 10, 64 << 10, 2 << 20, 8 << 20}
		reps = 400
	}

	table := &stats.Table{
		Title:  "Fig 2.1 — sporadic speculative failures, 1 thread, no contention",
		Header: []string{"set size", "read fail frac", "write fail frac"},
	}
	// Flatten to one point per (size, read|write) and fan out; each point
	// builds its own single-thread machine, so results are order-free.
	mode := func(i int) string {
		if i%2 == 1 {
			return "write"
		}
		return "read"
	}
	fails, _ := measure(o, 2*len(sizesBytes), func(i int) string {
		return fmt.Sprintf("%s-%s", stats.SizeLabel(sizesBytes[i/2]), mode(i))
	}, nil, func(i int, prof *obs.Options) (float64, *obs.Profile) {
		lines := sizesBytes[i/2] / 64
		if lines == 0 {
			lines = 1
		}
		// Small sets get extra repetitions to resolve the ~1e-4
		// spurious floor; large sets need fewer (their failure rates
		// are large and each transaction is long).
		r := reps
		if lines <= 512 && !o.Quick {
			r = reps * 10
		}
		if lines > 4096 {
			r = reps / 10
			if r < 30 {
				r = 30
			}
		}
		return setScan(o, lines, r, i%2 == 1, prof, "RTM-scan-"+mode(i))
	})
	for si, bytes := range sizesBytes {
		table.AddRow(stats.SizeLabel(bytes), stats.E2(fails[2*si]), stats.E2(fails[2*si+1]))
	}
	return []*stats.Table{table}
}

// setScan runs reps transactions touching n distinct lines and returns the
// failure fraction (plus the point's profile, labelled label, when prof is
// non-nil).
func setScan(o Options, n, reps int, write bool, prof *obs.Options, label string) (float64, *obs.Profile) {
	cfg := tsx.DefaultConfig(1)
	cfg.Seed = o.Seed
	cfg.MemWords = (n + 8) * mem.LineWords
	m := tsx.NewMachine(cfg)
	pr := harness.NewProfiler(prof, label)
	failures := 0
	pr.Run(m, 1, func(t *tsx.Thread) {
		arr := t.AllocLines(n * mem.LineWords)
		for i := 0; i < reps; i++ {
			ok, _ := t.RTM(func() {
				for l := 0; l < n; l++ {
					a := arr + mem.Addr(l*mem.LineWords)
					if write {
						t.Store(a, uint64(i))
					} else {
						_ = t.Load(a)
					}
				}
			})
			if !ok {
				failures++
			}
		}
	})
	return float64(failures) / float64(reps), pr.Profile()
}
