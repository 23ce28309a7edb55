package figures

import (
	"fmt"

	"hle/internal/harness"
	"hle/internal/stats"
)

// FigCh6 demonstrates Chapter 6: the HLE-adjusted ticket and CLH locks are
// usable under elision and behave like the MCS lock — both the avalanche
// under plain HLE and the SCM rescue — whereas the unadjusted versions
// cannot elide at all (their speculative path is the standard path).
func FigCh6(o Options) []*stats.Table {
	o = o.withDefaults()
	locksUnderTest := []string{"MCS", "AdjTicket", "AdjCLH", "Ticket", "CLH"}
	sizes := treeSizes(o)
	if !o.Quick {
		sizes = []int{8, 128, 2048, 32768}
	}
	// One group per size carrying the full (lock × scheme) matrix: a single
	// populate per size serves both schemes' tables.
	var groups []dsGroup
	for _, size := range sizes {
		var specs []harness.SchemeSpec
		for _, l := range locksUnderTest {
			specs = append(specs,
				harness.SchemeSpec{Scheme: "Standard", Lock: l},
				harness.SchemeSpec{Scheme: "HLE", Lock: l},
				harness.SchemeSpec{Scheme: "HLE-SCM", Lock: l})
		}
		groups = append(groups, dsGroup{
			size: size, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads,
			specs: specs,
		})
	}
	byGroup := dsRunGroups(o, groups)

	var tables []*stats.Table
	for _, scheme := range []string{"HLE", "HLE-SCM"} {
		tb := &stats.Table{
			Title: fmt.Sprintf("Ch 6 — fair locks under %s: speedup over standard lock / non-spec fraction, 10/10/80, %d threads",
				scheme, o.Threads),
			Header: []string{"tree size", "MCS", "AdjTicket", "AdjCLH", "Ticket", "CLH"},
		}
		fr := &stats.Table{
			Title:  fmt.Sprintf("Ch 6 — non-speculative fraction under %s", scheme),
			Header: []string{"tree size", "MCS", "AdjTicket", "AdjCLH", "Ticket", "CLH"},
		}
		for gi, size := range sizes {
			res := byGroup[gi]
			speedRow := []string{stats.SizeLabel(size)}
			fracRow := []string{stats.SizeLabel(size)}
			for _, l := range locksUnderTest {
				speedRow = append(speedRow,
					stats.F2(res[scheme+" "+l].Throughput/res["Standard "+l].Throughput))
				fracRow = append(fracRow,
					stats.F3(res[scheme+" "+l].Ops.NonSpecFraction()))
			}
			tb.AddRow(speedRow...)
			fr.AddRow(fracRow...)
		}
		tables = append(tables, tb, fr)
	}
	return tables
}

// FigCh7 evaluates the Chapter 7 hardware extension: plain HLE, HLE with
// the extension, and HLE-SCM, compared across contention levels. The
// extension must close most of the avalanche gap in hardware alone.
func FigCh7(o Options) []*stats.Table {
	o = o.withDefaults()
	locks := []string{"TTAS", "MCS"}
	sizes := treeSizes(o)
	if !o.Quick {
		sizes = []int{8, 128, 2048, 32768}
	}
	// Two groups per (lock, size): the baseline schemes, and HLE-HWExt,
	// which runs without warmup, once.
	var groups []dsGroup
	for _, lock := range locks {
		for _, size := range sizes {
			groups = append(groups, dsGroup{
				size: size, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads,
				specs: []harness.SchemeSpec{
					{Scheme: "Standard", Lock: lock},
					{Scheme: "HLE", Lock: lock},
					{Scheme: "HLE-SCM", Lock: lock},
				},
			})
			groups = append(groups, dsGroup{
				size: size, mix: harness.MixModerate, mk: mkRBTree, threads: o.Threads,
				specs: []harness.SchemeSpec{{Scheme: "HLE-HWExt", Lock: lock}},
				rcfg:  &harness.Config{Threads: o.Threads, CycleBudget: o.Budget},
				runs:  1,
			})
		}
	}
	byGroup := dsRunGroups(o, groups)

	var tables []*stats.Table
	gi := 0
	for _, lock := range locks {
		tb := &stats.Table{
			Title: fmt.Sprintf("Ch 7 — HLE vs HLE+extension vs HLE-SCM, speedup over standard %s lock, 10/10/80, %d threads",
				lock, o.Threads),
			Header: []string{"tree size", "HLE", "HLE-HWExt", "HLE-SCM", "HWExt non-spec", "HLE non-spec"},
		}
		for _, size := range sizes {
			base := byGroup[gi]
			ext := byGroup[gi+1]["HLE-HWExt "+lock]
			gi += 2
			std := base["Standard "+lock].Throughput
			tb.AddRow(stats.SizeLabel(size),
				stats.F2(base["HLE "+lock].Throughput/std),
				stats.F2(ext.Throughput/std),
				stats.F2(base["HLE-SCM "+lock].Throughput/std),
				stats.F3(ext.Ops.NonSpecFraction()),
				stats.F3(base["HLE "+lock].Ops.NonSpecFraction()))
		}
		tables = append(tables, tb)
	}
	return tables
}
