package figures_test

import (
	"testing"

	"hle/internal/figures"
)

// TestPlaceSweepBench checks the sweep result's shape and its headline
// claim: the auto-pad pass reduces data-line conflict aborts vs packed on
// at least one workload.
func TestPlaceSweepBench(t *testing.T) {
	o := tinyOpts()
	o.Parallel = 4
	bench, tables := figures.PlaceSweep(o)
	if len(tables) != 4 {
		t.Fatalf("expected 4 tables, got %d", len(tables))
	}
	if len(bench.Points) == 0 || len(bench.AutoPad) == 0 {
		t.Fatal("empty bench record")
	}
	policies := map[string]bool{}
	for _, p := range bench.Points {
		policies[p.Policy] = true
		if p.Runtime == 0 && p.Throughput == 0 {
			t.Errorf("point %s/%s/%s measured nothing", p.Workload, p.Policy, p.Scheme)
		}
	}
	for _, want := range []string{"packed", "padded", "colored", "arena", "auto-pad"} {
		if !policies[want] {
			t.Errorf("no points for policy %s", want)
		}
	}
	reduced := false
	for _, e := range bench.AutoPad {
		if e.AutoPadData < e.PackedData {
			reduced = true
		}
	}
	if !reduced {
		t.Errorf("auto-pad reduced data-line conflicts on no workload: %+v", bench.AutoPad)
	}
}
