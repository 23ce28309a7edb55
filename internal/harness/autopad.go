package harness

import (
	"fmt"
	"sort"

	"hle/internal/core"
	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// DefaultAutoPadTopK is how many of the hottest data lines the auto-pad
// plan pads when AutoPadConfig.TopK is zero.
const DefaultAutoPadTopK = 8

// AutoPadConfig configures the profiling burst of the auto-pad pass.
type AutoPadConfig struct {
	// Scheme is the scheme the burst runs under — normally the same one
	// the measured run will use, so the burst sees the conflicts that run
	// will suffer. MkScheme, when non-nil, overrides it.
	Scheme   SchemeSpec
	MkScheme func(t *tsx.Thread) core.Scheme
	// Threads and Burst shape the profiling run: Threads workers for
	// Burst virtual cycles (no warmup — the burst wants the transient
	// too, hot lines are hot from the first conflict).
	Threads int
	Burst   uint64
	// Seed, when non-zero, reseeds the burst machine, decorrelating the
	// burst from the measured run that follows.
	Seed int64
	// TopK bounds the plan to the K hottest data lines (0 selects
	// DefaultAutoPadTopK). Lock lines are never planned: locks already
	// own their lines exclusively.
	TopK int
}

// AutoPadReport says what the burst observed and what the plan covers.
type AutoPadReport struct {
	// PlanLines are the padded line indices, ascending — the burst's
	// hottest conflict data lines.
	PlanLines []int
	// BurstAborts and BurstDataConflicts are the burst's abort totals:
	// all causes, and the conflict-data-line class the plan attacks.
	BurstAborts        uint64
	BurstDataConflicts uint64
}

// AutoPad is the closed profile→layout loop: fork the warm template, run a
// short profiling burst under the scheme, read the conflict heatmap, and
// return a new template whose allocator diverts the hottest data lines'
// objects to private padded lines. The returned template re-populates
// under a PadLines plan: its shadow cursor replays the packed layout, so
// "hottest line L in the burst" precisely names "the objects that were
// packed onto L". The input template (and everything already forked from
// it) is untouched.
//
// The template must be packed (the baseline the heatmap indices and the
// shadow cursor describe); AutoPad panics on any other placement.
func AutoPad(wt *WarmTemplate, cfg AutoPadConfig) (*WarmTemplate, AutoPadReport) {
	if p := wt.Machine.Layout.Placement; p != mem.Packed {
		panic(fmt.Sprintf("harness: AutoPad needs a packed template, got %v", p))
	}
	if cfg.Threads <= 0 || cfg.Burst == 0 {
		panic(fmt.Sprintf("harness: bad AutoPad config %+v", cfg))
	}
	topK := cfg.TopK
	if topK == 0 {
		topK = DefaultAutoPadTopK
	}

	// TopLines < 0 keeps every line: the plan must see the full heatmap,
	// not the display-truncated top 16.
	res := PointSpec{
		Warm:     wt,
		Scheme:   cfg.Scheme,
		MkScheme: cfg.MkScheme,
		Seed:     cfg.Seed,
		Cfg: Config{
			Threads:     cfg.Threads,
			CycleBudget: cfg.Burst,
			Profile:     &obs.Options{TopLines: -1},
		},
	}.Run()

	var report AutoPadReport
	report.BurstAborts = res.Profile.TotalAborts
	report.BurstDataConflicts = res.Profile.Cause(obs.ClassConflictDataLine)
	plan := make(map[int]bool)
	// Profile.Lines is sorted hottest-first (ties by line index), so the
	// plan is deterministic: take the first K data lines.
	for _, l := range res.Profile.Lines {
		if len(report.PlanLines) >= topK {
			break
		}
		if l.LockLine || l.Count == 0 {
			continue
		}
		plan[l.Line] = true
		report.PlanLines = append(report.PlanLines, l.Line)
	}
	sort.Ints(report.PlanLines)
	if len(plan) == 0 {
		// Nothing to pad: hand back the original template unchanged, so
		// callers measure the true baseline instead of a pointless copy.
		return wt, report
	}

	ncfg := wt.Machine
	ncfg.Layout = wt.Machine.Layout.WithPadLines(plan)
	return &WarmTemplate{Machine: ncfg, MkWorkload: wt.MkWorkload}, report
}
