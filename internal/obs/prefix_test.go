package obs_test

import (
	"reflect"
	"testing"

	"hle/internal/mem"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// TestHeatByPrefix checks grouping of the conflict heatmap by label
// prefix: lines labeled "s03/lock" and "s03/size" merge into group "s03",
// labels without a '/' group under the full label, unlabeled lines are
// bucketed under "?" (never dropped — the auto-pad pass keys off this
// grouping and must see hot anonymous lines), and ordering is by count
// descending then prefix ascending.
func TestHeatByPrefix(t *testing.T) {
	cases := []struct {
		name  string
		lines []obs.LineHeat
		want  []obs.PrefixHeat
	}{
		{
			name: "mixed labels",
			lines: []obs.LineHeat{
				{Line: 1, Label: "s03/lock", LockLine: true, Count: 10},
				{Line: 2, Label: "s03/size", Count: 5},
				{Line: 3, Label: "s01/lock", LockLine: true, Count: 7},
				{Line: 4, Label: "seq", Count: 7},
				{Line: 5, Count: 2},
			},
			want: []obs.PrefixHeat{
				{Prefix: "s03", Count: 15, LockCount: 10},
				{Prefix: "s01", Count: 7, LockCount: 7},
				{Prefix: "seq", Count: 7},
				{Prefix: "?", Count: 2},
			},
		},
		{
			name: "unlabeled lines merge into one ? bucket",
			lines: []obs.LineHeat{
				{Line: 9, Count: 4},
				{Line: 2, Label: "a/x", Count: 3},
				{Line: 7, Count: 4, LockLine: true},
			},
			want: []obs.PrefixHeat{
				{Prefix: "?", Count: 8, LockCount: 4},
				{Prefix: "a", Count: 3},
			},
		},
		{
			name: "unlabeled can dominate",
			lines: []obs.LineHeat{
				{Line: 1, Label: "hot", Count: 1},
				{Line: 2, Count: 100},
			},
			want: []obs.PrefixHeat{
				{Prefix: "?", Count: 100},
				{Prefix: "hot", Count: 1},
			},
		},
	}
	for _, c := range cases {
		p := &obs.Profile{Lines: c.lines}
		if got := p.HeatByPrefix(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: HeatByPrefix = %+v, want %+v", c.name, got, c.want)
		}
	}
	if len((&obs.Profile{}).HeatByPrefix()) != 0 {
		t.Error("empty profile should produce no groups")
	}
}

// TestHeatByPrefixCountsEveryLine: a collector whose heatmap keeps only
// the TopLines hottest lines still groups every conflicting line it
// counted, so the prefix totals sum to all conflict aborts, and unlabeled
// lines land in the "?" bucket.
func TestHeatByPrefixCountsEveryLine(t *testing.T) {
	m := tsx.NewMachine(tsx.DefaultConfig(1))
	var lines []int
	m.RunOne(func(th *tsx.Thread) {
		for i := 0; i < 6; i++ {
			a := th.AllocLines(mem.LineWords)
			switch {
			case i < 2:
				th.LabelLockLines(a, 1, "s00/lock")
			case i < 4:
				th.LabelLines(a, 1, "s01/size")
			}
			lines = append(lines, mem.LineOf(a))
		}
	})
	c := obs.Attach(m, obs.Options{TopLines: 2})
	want := map[string]obs.PrefixHeat{}
	var total uint64
	for i, line := range lines {
		n := uint64(10 - i)
		for k := uint64(0); k < n; k++ {
			c.TxAbort(0, 0, 0, tsx.CauseConflict, line, -1, false, false)
		}
		prefix := [...]string{"s00", "s00", "s01", "s01", "?", "?"}[i]
		g := want[prefix]
		g.Prefix = prefix
		g.Count += n
		if i < 2 {
			g.LockCount += n
		}
		want[prefix] = g
		total += n
	}
	p := c.Profile()
	if len(p.Lines) != 2 {
		t.Fatalf("heatmap kept %d lines, want TopLines=2", len(p.Lines))
	}
	got := p.HeatByPrefix()
	var sum uint64
	for _, g := range got {
		if g != want[g.Prefix] {
			t.Errorf("group %+v, want %+v", g, want[g.Prefix])
		}
		sum += g.Count
	}
	if len(got) != len(want) {
		t.Errorf("groups %+v, want %d groups", got, len(want))
	}
	conflicts := p.Cause(obs.ClassConflictLockLine) + p.Cause(obs.ClassConflictDataLine)
	if sum != total || sum != conflicts {
		t.Errorf("prefix totals %d, conflicts counted %d (profile causes %d)", sum, total, conflicts)
	}
}
